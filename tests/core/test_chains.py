"""Unit tests for keyed record chains."""

import struct

import pytest

from repro.core import ChainStore
from repro.core.chains import _unpack_locator
from repro.storage import (
    BlockDevice,
    BufferPool,
    PageCorruptionError,
    RecordCodec,
    RecordPage,
)


def make_store(page_size=256, capacity=64):
    device = BlockDevice(page_size=page_size)
    pool = BufferPool(device, capacity=capacity)
    return device, pool, ChainStore(pool, RecordCodec("qi"))


class TestBuildGet:
    def test_roundtrip(self):
        _d, _p, store = make_store()
        store.build([((1, 0), [(10, 0), (11, 1)]), ((2, 5), [(20, 2)])])
        assert store.get((1, 0)) == [(10, 0), (11, 1)]
        assert store.get((2, 5)) == [(20, 2)]

    def test_absent_key_empty(self):
        _d, _p, store = make_store()
        store.build([((1,), [(1, 1)])])
        assert store.get((9,)) == []
        assert (9,) not in store
        assert (1,) in store

    def test_empty_groups_skipped(self):
        _d, _p, store = make_store()
        store.build([((1,), []), ((2,), [(0, 0)])])
        assert (1,) not in store
        assert store.num_records == 1

    def test_long_chain_spans_pages(self):
        _d, _p, store = make_store(page_size=64)
        records = [(i, i % 7) for i in range(200)]
        store.build([((0,), records)])
        assert store.get((0,)) == records
        assert store.num_chain_pages > 1

    def test_build_empty(self):
        _d, _p, store = make_store()
        store.build([])
        assert store.num_records == 0


class TestIOBehaviour:
    def test_chain_read_is_mostly_sequential(self):
        device, pool, store = make_store(page_size=64, capacity=8)
        store.build([((0,), [(i, 0) for i in range(300)])])
        pool.clear()
        device.reset_stats()
        store.get((0,))
        # directory descent is random; chain pages are contiguous
        assert device.stats.sequential_reads >= store.num_chain_pages - 1

    def test_small_chain_single_page(self):
        device, pool, store = make_store(page_size=256, capacity=8)
        store.build([((k,), [(k, 0)]) for k in range(10)])
        pool.clear()
        device.reset_stats()
        store.get((3,))
        # tree descent + one chain page
        assert device.stats.reads <= store.directory.height + 1

    def test_size_accounting(self):
        device, _pool, store = make_store()
        store.build([((k,), [(k, 0), (k, 1)]) for k in range(20)])
        expected = (
            store.num_chain_pages * device.page_size
            + store.directory.size_in_bytes
        )
        assert store.size_in_bytes == expected


class TestSlotRangeDecode:
    @staticmethod
    def whole_page_get(store, key):
        """Reference read: decode every page whole, then slice."""
        page_index, slot, count = _unpack_locator(store.directory.get(key))
        records = []
        while count > 0:
            page = RecordPage.from_bytes(
                store.pool.get(store._page_ids[page_index]),
                store.codec, store.page_size,
            )
            take = page.records[slot:slot + count]
            records.extend(take)
            count -= len(take)
            page_index += 1
            slot = 0
        return records

    def test_matches_whole_page_decode(self):
        # capacity 20 per page: groups share pages, and the long ones span
        _d, _p, store = make_store(page_size=256)
        sizes = [1, 7, 4, 45, 2, 20, 61, 3, 19]
        groups = [
            ((k,), [(k * 100 + i, -i) for i in range(size)])
            for k, size in enumerate(sizes)
        ]
        store.build(groups)
        assert store.num_chain_pages > 4
        for key, records in groups:
            assert store.get(key) == self.whole_page_get(store, key) == records

    def test_damaged_record_count_raises(self):
        _d, pool, store = make_store(page_size=64)
        store.build([((0,), [(i, i) for i in range(3)])])
        page_id = store._page_ids[0]
        image = bytearray(pool.get(page_id))
        capacity = store.codec.capacity(store.page_size)
        struct.pack_into("<H", image, 2, capacity + 1)
        pool.put(page_id, bytes(image))
        with pytest.raises(PageCorruptionError, match="exceeds page capacity"):
            store.get((0,))
