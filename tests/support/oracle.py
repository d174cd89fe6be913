"""The build's exact oracle check, shared by the build-up test modules."""

from __future__ import annotations

import numpy as np

from repro.colorcoding.buildup_baseline import build_hash_table
from repro.colorcoding.plans import full_universe_keys
from repro.treelets.registry import TreeletRegistry

__all__ = ["assert_matches_oracle", "has_partial_layer"]


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
