"""The build's exact oracle check, shared by the build-up test modules."""

from __future__ import annotations

import numpy as np

from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.plans import full_universe_keys
from repro.table.count_table import SuccinctLayer
from repro.treelets.registry import TreeletRegistry

__all__ = [
    "assert_layers_revalidate",
    "assert_matches_oracle",
    "has_partial_layer",
]


def assert_matches_oracle(table, graph, coloring, zero_rooting=True):
    """Exactly the oracle's key set and nonzero entries, layer by layer."""
    reference = build_hash_table(
        graph, coloring, zero_rooting=zero_rooting
    ).to_encoding_dict()
    built = {}
    for h in range(1, table.k + 1):
        layer = table.layer(h)
        counts = np.asarray(layer.dense_counts())
        for row, key in enumerate(layer.keys):
            built[key] = {
                int(v): float(counts[row, v])
                for v in np.flatnonzero(counts[row])
            }
    assert built.keys() == reference.keys()
    for key, per_vertex in reference.items():
        assert built[key] == {
            v: float(count) for v, count in per_vertex.items()
        }, key


def has_partial_layer(table):
    """Whether some layer holds fewer keys than its potential universe."""
    registry = TreeletRegistry(table.k)
    return any(
        table.layer(h).num_keys < len(full_universe_keys(registry, h))
        for h in range(1, table.k + 1)
    )


def assert_layers_revalidate(table):
    """Every succinct layer passes the validating constructor unchanged.

    Edge updates assemble succinct layers without the constructor's
    checks; re-running them must accept the arrays and pack them to the
    same bytes and dtypes.
    """
    for h in range(1, table.k + 1):
        if not table.has_layer(h):
            continue
        layer = table.layer(h)
        if layer.layout != "succinct":
            continue
        checked = SuccinctLayer(
            layer.size, layer.keys, layer.indptr, layer.key_row, layer.values
        )
        for name in ("indptr", "key_row", "values"):
            got, want = getattr(layer, name), getattr(checked, name)
            assert got.dtype == want.dtype, (h, name)
            assert got.tobytes() == want.tobytes(), (h, name)
