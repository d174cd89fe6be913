"""Tests for the CC hash table baseline."""

from __future__ import annotations

import pytest

from repro.errors import TableError
from repro.table.hash_table import HashCountTable
from repro.treelets.pointer_tree import PointerTreeFactory


class TestHashCountTable:
    @pytest.fixture
    def table(self):
        factory = PointerTreeFactory()
        return HashCountTable(k=3, num_vertices=3, factory=factory), factory

    def test_k_validation(self):
        with pytest.raises(TableError):
            HashCountTable(k=1, num_vertices=2, factory=PointerTreeFactory())

    def test_add_get(self, table):
        t, factory = table
        s = factory.singleton
        t.add(0, s, 0b001, 5)
        t.add(0, s, 0b001, 2)
        assert t.get(0, s, 0b001) == 7
        assert t.get(1, s, 0b001) == 0

    def test_add_zero_is_noop(self, table):
        t, factory = table
        t.add(0, factory.singleton, 0b1, 0)
        assert t.total_pairs() == 0

    def test_add_to_zero_removes(self, table):
        t, factory = table
        s = factory.singleton
        t.add(0, s, 0b1, 5)
        t.add(0, s, 0b1, -5)
        assert t.total_pairs() == 0

    def test_set(self, table):
        t, factory = table
        s = factory.singleton
        t.set(0, s, 0b1, 9)
        assert t.get(0, s, 0b1) == 9
        t.set(0, s, 0b1, 0)
        assert t.total_pairs() == 0

    def test_items_at_by_size(self, table):
        t, factory = table
        s = factory.singleton
        edge = factory.from_children([s])
        t.add(0, s, 0b001, 1)
        t.add(0, edge, 0b011, 4)
        assert len(list(t.items_at(0))) == 2
        assert list(t.items_at(0, size=2)) == [(edge, 0b011, 4)]
        assert t.total_at(0, 2) == 4

    def test_accounting(self, table):
        t, factory = table
        t.add(0, factory.singleton, 0b1, 1)
        t.add(1, factory.singleton, 0b10, 1)
        assert t.total_pairs() == 2
        assert t.paper_equivalent_bytes() == 2 * 128 // 8

    def test_to_encoding_dict(self, table):
        t, factory = table
        edge = factory.from_children([factory.singleton])
        t.add(2, edge, 0b011, 6)
        from repro.treelets.encoding import SINGLETON, merge

        converted = t.to_encoding_dict()
        assert converted == {(merge(SINGLETON, SINGLETON), 0b011): {2: 6}}
