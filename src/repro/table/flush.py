"""Scratch-file lifecycle helpers shared by the disk-backed subsystems.

The paper's build-up flushes finished count tables to disk and reads
them back memory-mapped (§3.1 and §3.3); here that is the sharded build
(:mod:`repro.colorcoding.sharded`), whose
:class:`~repro.table.layer_store.ShardedStore` commits every block
through a ``.tmp-<pid>`` write and an atomic rename.  The artifact cache
(:mod:`repro.artifacts.cache`) admits artifacts the same way.  This
module holds what both need to clean up after themselves:

* :func:`tmp_owner_alive` and :func:`reap_stale_tmp` tell a crashed
  writer's ``.tmp-<pid>`` leftovers from live in-flight writes and
  remove the former;
* :func:`remove_scratch` tears a scratch directory down by ownership —
  the whole directory when the store created it, only the managed files
  in a pre-existing one.
"""

from __future__ import annotations

import os
import shutil

__all__ = [
    "remove_scratch",
    "tmp_owner_alive",
    "reap_stale_tmp",
]


def tmp_owner_alive(name: str) -> bool:
    """Whether the writer of a ``<path>.tmp-<pid>`` entry still runs.

    The ``.tmp-<pid>`` convention marks in-flight scratch writes (shard
    blobs mid-seal, artifact-cache admissions); once the owning pid is
    gone such entries can only be leftovers of a crashed writer.
    Conservative: an unparseable suffix or a pid this user cannot signal
    (``PermissionError``: the pid exists, owned by someone else) counts
    as alive — only a provably dead owner makes the entry stale.
    """
    try:
        pid = int(name.rsplit(".tmp-", 1)[1])
    except (IndexError, ValueError):
        return True
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def reap_stale_tmp(directory: str) -> int:
    """Remove crash-leftover ``.tmp-<pid>`` entries with dead owners.

    Shared by every subsystem that writes through the ``.tmp-<pid>``
    convention (sharded layer blobs, the artifact cache): files and
    directories alike are removed once their writer pid is provably
    dead; live writers and same-pid entries are never touched.  Returns
    how many entries are actually gone.
    """
    reaped = 0
    if not os.path.isdir(directory):
        return reaped
    for name in os.listdir(directory):
        if ".tmp-" not in name or tmp_owner_alive(name):
            continue
        path = os.path.join(directory, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            try:
                os.remove(path)
            except OSError:
                pass
        if not os.path.exists(path):
            reaped += 1
    return reaped


def remove_scratch(directory: str, owns_directory: bool, paths) -> None:
    """Ownership-aware teardown of a store's scratch directory.

    Removes the whole ``directory`` when the store created it (the
    temporary-directory case); in a pre-existing directory only the
    managed ``paths`` are unlinked — foreign files are never touched.
    Missing files and directories are ignored (idempotent, race-safe).
    """
    if owns_directory:
        shutil.rmtree(directory, ignore_errors=True)
        return
    if not os.path.isdir(directory):
        return
    for path in paths:
        try:
            os.remove(path)
        except OSError:
            pass
