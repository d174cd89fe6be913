"""Tests for the compact count table (motivo §3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TableError
from repro.table.count_table import (
    CountTable,
    DenseLayer,
    Layer,
    SuccinctLayer,
)
from repro.treelets.encoding import SINGLETON, encode_children, merge

EDGE = merge(SINGLETON, SINGLETON)
PATH3 = encode_children([EDGE])
STAR3 = encode_children([SINGLETON, SINGLETON])


def make_table():
    """A small hand-built table: k=3, 4 vertices."""
    table = CountTable(k=3, num_vertices=4, zero_rooted=False)
    table.add_layer(1, {
        (SINGLETON, 0b001): np.array([1.0, 0.0, 0.0, 1.0]),
        (SINGLETON, 0b010): np.array([0.0, 1.0, 0.0, 0.0]),
        (SINGLETON, 0b100): np.array([0.0, 0.0, 1.0, 0.0]),
    })
    table.add_layer(2, {
        (EDGE, 0b011): np.array([1.0, 1.0, 0.0, 0.0]),
        (EDGE, 0b101): np.array([2.0, 0.0, 1.0, 0.0]),
    })
    table.add_layer(3, {
        (PATH3, 0b111): np.array([3.0, 1.0, 0.0, 2.0]),
        (STAR3, 0b111): np.array([1.0, 0.0, 4.0, 0.0]),
    })
    return table


class TestLayer:
    def test_sorted_by_key(self):
        keys = [(EDGE, 0b101), (EDGE, 0b011)]
        counts = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer = Layer(2, keys, counts)
        assert layer.keys == [(EDGE, 0b011), (EDGE, 0b101)]
        assert layer.counts[0].tolist() == [3.0, 4.0]

    def test_shape_mismatch(self):
        with pytest.raises(TableError):
            Layer(2, [(EDGE, 0b011)], np.zeros((2, 3)))

    def test_duplicate_keys(self):
        with pytest.raises(TableError):
            Layer(2, [(EDGE, 0b011), (EDGE, 0b011)], np.zeros((2, 3)))

    def test_cumulative_matches_running_sum(self):
        layer = make_table().layer(3)
        cumulative = layer.cumulative()
        assert np.allclose(cumulative[-1], layer.totals())
        assert np.allclose(np.diff(cumulative, axis=0), layer.counts[1:])

    def test_nonzero_pairs(self):
        assert make_table().layer(2).nonzero_pairs() == 4

    def test_layer_alias_is_dense(self):
        assert Layer is DenseLayer
        assert make_table().layer(2).layout == "dense"

    def test_treelet_rows_contiguous_range(self):
        layer = make_table().layer(2)
        rows = layer.treelet_rows(EDGE)
        assert isinstance(rows, range)
        assert list(rows) == [0, 1]
        assert layer.treelet_rows(PATH3) == range(0, 0)


class TestSuccinctLayer:
    def test_from_dense_round_trip(self):
        for size in (1, 2, 3):
            dense = make_table().layer(size)
            sealed = SuccinctLayer.from_dense(dense)
            assert sealed.keys == dense.keys
            assert sealed.nonzero_pairs() == dense.nonzero_pairs()
            assert np.array_equal(sealed.dense_counts(), dense.counts)
            assert np.array_equal(sealed.totals(), dense.totals())
            for row in range(dense.num_keys):
                assert np.array_equal(
                    sealed.row_values(row), dense.counts[row]
                )
                for v in range(dense.num_vertices):
                    assert sealed.value_at(row, v) == dense.counts[row, v]

    def test_values_stored_at_minimal_dtype(self):
        sealed = SuccinctLayer.from_dense(make_table().layer(3))
        assert sealed.values.dtype == np.uint8
        assert sealed.key_row.dtype == np.uint8
        big = DenseLayer(
            2, [(EDGE, 0b011)], np.array([[0.0, 70000.0]])
        )
        assert SuccinctLayer.from_dense(big).values.dtype == np.uint32

    def test_non_integer_counts_stay_float(self):
        layer = DenseLayer(2, [(EDGE, 0b011)], np.array([[0.5, 2.0]]))
        sealed = SuccinctLayer.from_dense(layer)
        assert sealed.values.dtype == np.float64
        assert sealed.value_at(0, 0) == 0.5

    def test_values_at_matches_dense_gather(self):
        dense = make_table().layer(3)
        sealed = SuccinctLayer.from_dense(dense)
        rows = np.array([0, 1, 0])
        verts = np.array([3, 0, 2, 1])
        assert np.array_equal(
            sealed.values_at(rows, verts), dense.values_at(rows, verts)
        )

    def test_key_major_pairs_match(self):
        dense = make_table().layer(3)
        sealed = SuccinctLayer.from_dense(dense)
        for a, b in zip(dense.key_major_pairs(), sealed.key_major_pairs()):
            assert np.array_equal(a, b)

    def test_sampling_parity_with_dense(self):
        dense = make_table().layer(3)
        sealed = SuccinctLayer.from_dense(dense)
        us = np.random.default_rng(4).random(64)
        for u in us.tolist():
            for v in (0, 1, 3):
                assert sealed.sample_row_at(v, u) == dense.sample_row_at(v, u)
        roots = np.array([0, 1, 3] * 8)
        assert np.array_equal(
            sealed.sample_rows_batch(roots, us[: roots.size]),
            dense.sample_rows_batch(roots, us[: roots.size]),
        )
        # An empty record raises the same error as the dense zero column.
        empty = SuccinctLayer.from_dense(
            DenseLayer(2, [(EDGE, 0b011)], np.array([[0.0, 3.0]]))
        )
        with pytest.raises(TableError):
            empty.sample_row_at(0, 0.5)
        with pytest.raises(TableError):
            empty.sample_rows_batch(np.array([0]), np.array([0.5]))

    def test_memory_bytes_counts_lazy_caches(self):
        sealed = SuccinctLayer.from_dense(make_table().layer(3))
        base = sealed.memory_bytes()
        sealed.sample_row_at(0, 0.5)  # builds the cumulative records
        assert sealed.memory_bytes() > base

    def test_csr_validation(self):
        with pytest.raises(TableError):
            SuccinctLayer(
                2, [(EDGE, 0b101), (EDGE, 0b011)],  # unsorted keys
                np.array([0, 1]), np.array([0]), np.array([1.0]),
            )
        with pytest.raises(TableError):
            SuccinctLayer(
                2, [(EDGE, 0b011)],
                np.array([0, 2]), np.array([0]), np.array([1.0]),
            )
        with pytest.raises(TableError):
            SuccinctLayer(
                2, [(EDGE, 0b011)],
                np.array([0, 1]), np.array([5]), np.array([1.0]),
            )
        with pytest.raises(TableError):
            # Key rows must strictly ascend within a record.
            SuccinctLayer(
                2, [(EDGE, 0b011), (EDGE, 0b101)],
                np.array([0, 2]), np.array([1, 0]), np.array([1.0, 2.0]),
            )


class TestCountTable:
    def test_k_validation(self):
        with pytest.raises(TableError):
            CountTable(k=1, num_vertices=3, zero_rooted=False)

    def test_layer_bounds(self):
        table = make_table()
        with pytest.raises(TableError):
            table.add_layer(4, {})
        with pytest.raises(TableError):
            table.add_layer(2, {})  # duplicate

    def test_wrong_size_key(self):
        table = CountTable(k=3, num_vertices=2, zero_rooted=False)
        with pytest.raises(TableError):
            table.add_layer(1, {(EDGE, 0b011): np.zeros(2)})

    def test_missing_layer(self):
        table = CountTable(k=3, num_vertices=2, zero_rooted=False)
        with pytest.raises(TableError):
            table.layer(2)
        assert not table.has_layer(2)

    def test_occ_operations(self):
        table = make_table()
        assert table.occ(EDGE, 0b101, 0) == 2.0
        assert table.occ(EDGE, 0b110, 0) == 0.0  # absent key
        assert table.occ_total(0) == 4.0  # 3 + 1 at vertex 0
        assert table.occ_total(2) == 4.0

    def test_iter_treelet(self):
        table = make_table()
        pairs = dict(table.iter_treelet(EDGE, 0))
        assert pairs == {0b011: 1.0, 0b101: 2.0}
        assert dict(table.iter_treelet(EDGE, 3)) == {}

    def test_record(self):
        table = make_table()
        record = table.record(0, 2)
        assert record == [((EDGE, 0b011), 1.0), ((EDGE, 0b101), 2.0)]

    def test_cumulative_record(self):
        table = make_table()
        record = table.cumulative_record(0, 3)
        keys = [key for key, _ in record]
        etas = [eta for _, eta in record]
        assert etas == sorted(etas)
        assert etas[-1] == table.occ_total(0)
        assert keys == sorted(keys)

    def test_cumulative_record_nonzero_only(self):
        # Like record (and the paper's records): zero-count keys are
        # omitted, and the keys match record's exactly.
        table = make_table()
        sparse = table.cumulative_record(1, 3)
        assert sparse == [((PATH3, 0b111), 1.0)]
        assert [key for key, _ in sparse] == [
            key for key, _ in table.record(1, 3)
        ]

    def test_seal_round_trip(self):
        table = make_table().seal("succinct")
        assert table.layout() == "succinct"
        reference = make_table()
        for v in range(4):
            for h in (1, 2, 3):
                assert table.record(v, h) == reference.record(v, h)
        assert table.actual_bytes() < reference.actual_bytes()

    def test_root_weights(self):
        table = make_table()
        assert table.root_weights().tolist() == [4.0, 1.0, 4.0, 2.0]

    def test_sample_key_distribution(self, rng):
        table = make_table()
        layer = table.layer(table.k)
        rows = table.sample_key_rows_batch(
            np.zeros(4000, dtype=np.int64), rng.random(4000)
        )
        draws = [layer.keys[row] for row in rows.tolist()]
        path_fraction = sum(1 for key in draws if key[0] == PATH3) / 4000
        # c(PATH3, v0) = 3 of total 4.
        assert path_fraction == pytest.approx(0.75, abs=0.03)

    def test_sample_key_empty_vertex(self, rng):
        table = make_table()
        table.layer(3).counts[:, 2] = 0.0
        # Invalidate caches by rebuilding; simpler: vertex 1 has weight 1.
        with pytest.raises(TableError):
            fresh = make_table()
            fresh.layer(3).counts[:, :] = 0.0
            fresh.sample_key_rows_batch(
                np.zeros(1, dtype=np.int64), rng.random(1)
            )

    def test_accounting(self):
        table = make_table()
        pairs = table.total_pairs()
        assert pairs == 4 + 4 + 5  # nonzero entries per layer
        assert table.paper_equivalent_bytes() == pairs * 176 // 8
        assert table.actual_bytes() > 0

    def test_set_layer(self):
        layer = make_table().layer(2)
        table = CountTable(k=3, num_vertices=4, zero_rooted=False)
        table.set_layer(layer)
        assert table.has_layer(2)
        with pytest.raises(TableError):
            table.set_layer(layer)

    def test_repr(self):
        assert "CountTable(k=3" in repr(make_table())
