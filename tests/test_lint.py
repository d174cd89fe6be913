"""Tests for the ``repro.lint`` static-analysis framework.

Per rule family: a positive fixture (the violation fires), a negative
fixture (idiomatic code stays clean), a suppressed fixture (a reasoned
``# repro: allow[...]`` silences it), and the suppression-without-reason
case (itself a finding).  Plus the meta-test the acceptance criteria
name: the live tree is lint-clean, and each rule's canonical violation
flips the exit signal on its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import PARSE_RULE_ID, SUPPRESSION_RULE_ID, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(tmp_path)], root=str(tmp_path))


def rule_ids(report):
    return sorted({finding.rule for finding in report.findings})


# ---------------------------------------------------------------------------
# REPRO-D001: ambient entropy
# ---------------------------------------------------------------------------


def test_d001_flags_global_np_random(tmp_path):
    report = lint_snippet(
        tmp_path,
        "colorcoding/kernel.py",
        """
        import numpy as np

        def draw(n):
            return np.random.rand(n)
        """,
    )
    assert rule_ids(report) == ["REPRO-D001"]
    assert "np.random.rand" in report.findings[0].message


def test_d001_flags_wall_clock_and_stdlib_random(tmp_path):
    report = lint_snippet(
        tmp_path,
        "table/build.py",
        """
        import random
        import time

        def stamp():
            return time.time()
        """,
    )
    assert rule_ids(report) == ["REPRO-D001"]
    assert len(report.findings) == 2  # the import and the call


def test_d001_flags_os_urandom_everywhere(tmp_path):
    report = lint_snippet(
        tmp_path,
        "util/ids.py",
        """
        import os

        def token():
            return os.urandom(8)
        """,
    )
    assert rule_ids(report) == ["REPRO-D001"]


def test_d001_allows_seeded_generators_and_perf_counter(tmp_path):
    report = lint_snippet(
        tmp_path,
        "sampling/draws.py",
        """
        import time

        import numpy as np

        def rng(seed):
            started = time.perf_counter()
            return np.random.default_rng(seed), started
        """,
    )
    assert report.clean


def test_d001_allows_wall_clock_outside_scoped_packages(tmp_path):
    report = lint_snippet(
        tmp_path,
        "engine/status.py",
        """
        import time

        def now():
            return time.time()
        """,
    )
    assert report.clean


def test_d001_allows_urandom_in_tracing_module(tmp_path):
    report = lint_snippet(
        tmp_path,
        "telemetry/tracing.py",
        """
        import os

        def trace_id():
            return os.urandom(16).hex()
        """,
    )
    assert report.clean


def test_d001_suppressed_with_reason(tmp_path):
    report = lint_snippet(
        tmp_path,
        "artifacts/manifest.py",
        """
        import time

        def manifest():
            return {
                # repro: allow[REPRO-D001] provenance stamp, never read back
                "created_at": time.time(),
            }
        """,
    )
    assert report.clean
    assert report.suppressions_used == 1


def test_suppression_without_reason_is_a_finding(tmp_path):
    report = lint_snippet(
        tmp_path,
        "artifacts/manifest.py",
        """
        import time

        def manifest():
            return time.time()  # repro: allow[REPRO-D001]
        """,
    )
    assert rule_ids(report) == [SUPPRESSION_RULE_ID]
    assert "no reason" in report.findings[0].message


# ---------------------------------------------------------------------------
# REPRO-D002: unordered iteration into arrays / seeds
# ---------------------------------------------------------------------------


def test_d002_flags_set_into_array_constructor(tmp_path):
    report = lint_snippet(
        tmp_path,
        "artifacts/cols.py",
        """
        import numpy as np

        def cols(a, b):
            return np.array({1, 2} | set(a))
        """,
    )
    assert "REPRO-D002" in rule_ids(report)


def test_d002_flags_keys_view_into_seed_derivation(tmp_path):
    report = lint_snippet(
        tmp_path,
        "sampling/seeds.py",
        """
        import numpy as np

        def streams(per_shard):
            return np.random.default_rng(per_shard.keys())
        """,
    )
    assert rule_ids(report) == ["REPRO-D002"]
    assert ".keys() view" in report.findings[0].message


def test_d002_flags_bare_iteration_over_set(tmp_path):
    report = lint_snippet(
        tmp_path,
        "colorcoding/levels.py",
        """
        def walk(levels):
            for level in {x for x in levels}:
                yield level
        """,
    )
    assert rule_ids(report) == ["REPRO-D002"]


def test_d002_allows_sorted_sets_and_dict_views(tmp_path):
    report = lint_snippet(
        tmp_path,
        "colorcoding/levels.py",
        """
        import numpy as np

        def walk(levels, table):
            out = np.array(sorted({x for x in levels}))
            for key, value in table.items():
                out = out + value
            for column in table.values():
                pass
            return out
        """,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# REPRO-L001: lock discipline
# ---------------------------------------------------------------------------

_LOCK_PREAMBLE = """
    import threading

    class Registry:
        _GUARDED_BY = {"_items": "_lock"}

        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}
"""

_UNLOCKED_SIZE = """
        def size(self):
            return len(self._items)
"""


def test_l001_flags_unlocked_access(tmp_path):
    report = lint_snippet(
        tmp_path,
        "serve/registry.py",
        _LOCK_PREAMBLE + _UNLOCKED_SIZE,
    )
    assert rule_ids(report) == ["REPRO-L001"]
    assert "_GUARDED_BY self._lock" in report.findings[0].message


def test_l001_flags_closure_escaping_the_lock(tmp_path):
    report = lint_snippet(
        tmp_path,
        "serve/registry.py",
        _LOCK_PREAMBLE
        + """
        def getter(self):
            with self._lock:
                return lambda key: self._items.get(key)
""",
    )
    assert rule_ids(report) == ["REPRO-L001"]


def test_l001_allows_locked_access_and_markers(tmp_path):
    report = lint_snippet(
        tmp_path,
        "serve/registry.py",
        _LOCK_PREAMBLE
        + """
        def size(self):
            with self._lock:
                return len(self._items)

        def _prune_locked(self):  # repro: holds-lock
            self._items.clear()
""",
    )
    assert report.clean


def test_l001_ignores_undeclared_classes_and_other_packages(tmp_path):
    source = """
        class Plain:
            def touch(self):
                return self._items
    """
    assert lint_snippet(tmp_path, "serve/plain.py", source).clean
    unlocked = _LOCK_PREAMBLE + _UNLOCKED_SIZE
    assert lint_snippet(tmp_path, "engine/registry.py", unlocked).clean


def test_l001_rejects_malformed_guarded_by(tmp_path):
    report = lint_snippet(
        tmp_path,
        "serve/registry.py",
        """
        class Registry:
            _GUARDED_BY = {"_items": some_name}
        """,
    )
    assert rule_ids(report) == ["REPRO-L001"]
    assert "string literals" in report.findings[0].message


# ---------------------------------------------------------------------------
# REPRO-T001: pool-transport safety
# ---------------------------------------------------------------------------


def test_t001_flags_lock_lambda_and_file_handle(tmp_path):
    report = lint_snippet(
        tmp_path,
        "engine/spec.py",
        """
        import threading
        from dataclasses import dataclass

        # repro: pool-transport
        @dataclass
        class Spec:
            convert = lambda value: value

        class Carrier:  # repro: pool-transport
            def __init__(self, path):
                self._lock = threading.Lock()
                self._sink = open(path, "a")
        """,
    )
    assert rule_ids(report) == ["REPRO-T001"]
    messages = " ".join(finding.message for finding in report.findings)
    assert "lambda" in messages
    assert "thread-synchronization" in messages
    assert "file handle" in messages
    assert len(report.findings) == 3


def test_t001_ignores_unmarked_classes(tmp_path):
    report = lint_snippet(
        tmp_path,
        "engine/other.py",
        """
        import threading

        class NotTransported:
            def __init__(self):
                self._lock = threading.Lock()
        """,
    )
    assert report.clean


def test_t001_clean_marked_dataclass(tmp_path):
    report = lint_snippet(
        tmp_path,
        "engine/spec.py",
        """
        from dataclasses import dataclass

        # repro: pool-transport
        @dataclass(frozen=True)
        class Spec:
            seed: int
            samples: int = 0
        """,
    )
    assert report.clean


# ---------------------------------------------------------------------------
# REPRO-X001 / REPRO-X002: dtype exactness in the kernels
# ---------------------------------------------------------------------------


def test_x001_flags_dtypeless_constructors_in_kernels(tmp_path):
    report = lint_snippet(
        tmp_path,
        "colorcoding/urn.py",
        """
        import numpy as np

        def lanes(n):
            return np.arange(n), np.empty(n)
        """,
    )
    assert rule_ids(report) == ["REPRO-X001"]
    assert len(report.findings) == 2


def test_x002_flags_platform_and_narrow_dtypes(tmp_path):
    report = lint_snippet(
        tmp_path,
        "colorcoding/incremental.py",
        """
        import numpy as np

        def bad(values):
            a = values.astype(int)
            b = np.zeros(3, dtype=np.float32)
            c = np.asarray(values, dtype="float32")
            return a, b, c
        """,
    )
    assert rule_ids(report) == ["REPRO-X002"]
    assert len(report.findings) == 3


def test_dtype_rules_allow_exact_widths_and_other_files(tmp_path):
    exact = """
        import numpy as np

        def good(values, n):
            a = np.arange(n, dtype=np.int64)
            b = values.astype(np.float64)
            c = np.zeros(n, dtype=np.uint32)
            return a, b, c
    """
    assert lint_snippet(tmp_path, "colorcoding/urn.py", exact).clean
    # The exactness contract binds the two kernel files, not all of
    # colorcoding/ — plan compilation may size arrays contextually.
    sloppy = """
        import numpy as np

        def sizes(n):
            return np.arange(n)
    """
    assert lint_snippet(tmp_path, "colorcoding/plans.py", sloppy).clean


# ---------------------------------------------------------------------------
# Framework behavior
# ---------------------------------------------------------------------------


def test_syntax_error_is_a_parse_finding_not_a_crash(tmp_path):
    report = lint_snippet(tmp_path, "colorcoding/broken.py", "def f(:\n")
    assert rule_ids(report) == [PARSE_RULE_ID]


def test_findings_carry_location_and_render_as_file_line(tmp_path):
    report = lint_snippet(
        tmp_path,
        "colorcoding/urn.py",
        """
        import numpy as np

        def lanes(n):
            return np.arange(n)
        """,
    )
    finding = report.findings[0]
    assert finding.path == "colorcoding/urn.py"
    assert finding.line == 5
    assert finding.render().startswith("colorcoding/urn.py:5:")


#: One canonical violation per rule id — the acceptance criterion that
#: introducing any single rule's violation flips the lint exit signal.
CANONICAL_VIOLATIONS = {
    "REPRO-D001": (
        "sampling/v.py",
        "import numpy as np\n\ndef f(n):\n    return np.random.rand(n)\n",
    ),
    "REPRO-D002": (
        "sampling/v.py",
        "import numpy as np\n\ndef f(a):\n    return np.array(set(a))\n",
    ),
    "REPRO-L001": (
        "serve/v.py",
        "class C:\n"
        "    _GUARDED_BY = {\"_m\": \"_lock\"}\n"
        "    def f(self):\n"
        "        return self._m\n",
    ),
    "REPRO-T001": (
        "engine/v.py",
        "# repro: pool-transport\n"
        "class C:\n"
        "    fn = lambda x: x\n",
    ),
    "REPRO-X001": (
        "colorcoding/urn.py",
        "import numpy as np\n\ndef f(n):\n    return np.arange(n)\n",
    ),
    "REPRO-X002": (
        "colorcoding/urn.py",
        "import numpy as np\n\ndef f(v):\n    return v.astype(int)\n",
    ),
    SUPPRESSION_RULE_ID: (
        "sampling/v.py",
        "import time\n\nt = time.time()  # repro: allow[REPRO-D001]\n",
    ),
    PARSE_RULE_ID: ("sampling/v.py", "def f(:\n"),
}


@pytest.mark.parametrize("rule_id", sorted(CANONICAL_VIOLATIONS))
def test_each_rule_fires_alone(tmp_path, rule_id):
    relpath, source = CANONICAL_VIOLATIONS[rule_id]
    report = lint_snippet(tmp_path, relpath, source)
    assert not report.clean
    assert rule_ids(report) == [rule_id]


def test_live_tree_is_lint_clean():
    report = lint_paths(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tools"),
            str(REPO_ROOT / "benchmarks"),
        ],
        root=str(REPO_ROOT),
    )
    assert report.files_scanned > 50
    assert report.clean, "\n".join(f.render() for f in report.findings)
    # The deliberate exceptions (the table and ensemble manifest
    # timestamps) stay documented.
    assert report.suppressions_used >= 2


# ---------------------------------------------------------------------------
# Command-line entry points
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_cli_exit_codes_and_json_output(tmp_path):
    bad = tmp_path / "colorcoding"
    bad.mkdir()
    (bad / "urn.py").write_text(
        "import numpy as np\n\ndef f(n):\n    return np.arange(n)\n"
    )
    result = _run_cli(["colorcoding", "--format=json"], cwd=tmp_path)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["version"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["REPRO-X001"]
    assert payload["findings"][0]["line"] == 4

    (bad / "urn.py").write_text(
        "import numpy as np\n\ndef f(n):\n"
        "    return np.arange(n, dtype=np.int64)\n"
    )
    result = _run_cli(["colorcoding", "--format=json"], cwd=tmp_path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["findings"] == []


def test_cli_rejects_missing_paths_and_lists_rules(tmp_path):
    result = _run_cli(["no/such/dir"], cwd=tmp_path)
    assert result.returncode == 2
    assert "no such path" in result.stderr

    result = _run_cli(["--list-rules"], cwd=tmp_path)
    assert result.returncode == 0
    for rule_id in CANONICAL_VIOLATIONS:
        assert rule_id in result.stdout


def test_run_lint_wrapper_scans_the_repo(tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "run_lint.py"),
         "--format=json"],
        cwd=tmp_path,  # anywhere: the wrapper anchors itself to the repo
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["findings"] == []
    assert payload["files_scanned"] > 50
