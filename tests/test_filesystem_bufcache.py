"""Simulated file system and buffer cache tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import OSError_
from repro.osim.buffercache import BufferCache
from repro.osim.filesystem import BLOCK_SIZE, FileSystem, RepeatedBytes


class TestFileSystem:
    def test_create_and_read(self):
        fs = FileSystem()
        node = fs.create("/a/b", b"hello world")
        assert fs.read(node.ino, 0, 5) == b"hello"
        assert fs.read(node.ino, 6, 100) == b"world"

    @given(seed=st.binary(min_size=1, max_size=9), size=st.integers(0, 200),
           offset=st.integers(0, 220), nbytes=st.integers(0, 220),
           patch=st.binary(max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_repeated_bytes_reads_like_real_bytes(self, seed, size, offset,
                                                  nbytes, patch):
        """Generated content stays unmaterialised for reads and becomes an
        ordinary file on the first write."""
        real = (seed * (size // len(seed) + 1))[:size]
        fs = FileSystem()
        node = fs.create("/gen", RepeatedBytes(seed, size))
        assert node.size == size and node.nblocks() == -(-size // BLOCK_SIZE)
        assert fs.read(node.ino, offset, nbytes) == real[offset:offset + nbytes]
        assert isinstance(node.data, RepeatedBytes)
        fs.write(node.ino, offset, patch)
        want = bytearray(real.ljust(offset + len(patch), b"\0"))
        want[offset:offset + len(patch)] = patch
        assert bytes(node.data) == bytes(want)

    def test_create_duplicate_rejected(self):
        fs = FileSystem()
        fs.create("/x")
        with pytest.raises(OSError_):
            fs.create("/x")

    def test_write_extends(self):
        fs = FileSystem()
        node = fs.create("/x")
        fs.write(node.ino, 10, b"abc")
        assert node.size == 13
        assert fs.read(node.ino, 0, 10) == b"\0" * 10

    def test_overwrite_in_place(self):
        fs = FileSystem()
        node = fs.create("/x", b"aaaa")
        fs.write(node.ino, 1, b"bb")
        assert bytes(node.data) == b"abba"

    def test_truncate_both_ways(self):
        fs = FileSystem()
        node = fs.create("/x", b"abcdef")
        fs.truncate(node.ino, 3)
        assert node.size == 3
        fs.truncate(node.ino, 6)
        assert bytes(node.data) == b"abc\0\0\0"

    def test_unlink(self):
        fs = FileSystem()
        node = fs.create("/x")
        fs.unlink("/x")
        assert not fs.exists("/x")
        with pytest.raises(OSError_):
            fs.inode(node.ino)

    def test_unlink_missing_raises(self):
        fs = FileSystem()
        with pytest.raises(OSError_):
            fs.unlink("/nope")

    def test_extents_do_not_overlap(self):
        fs = FileSystem()
        a = fs.create("/a", b"x" * 10_000)
        b = fs.create("/b", b"y" * 10_000)
        a_end = a.disk_base + a.nblocks() * BLOCK_SIZE
        assert b.disk_base >= a_end

    def test_disk_offset_sequential(self):
        fs = FileSystem()
        node = fs.create("/a", b"x" * (3 * BLOCK_SIZE))
        assert node.disk_offset(1) - node.disk_offset(0) == BLOCK_SIZE

    def test_paths_listing(self):
        fs = FileSystem()
        fs.create("/b")
        fs.create("/a")
        assert fs.paths() == ["/a", "/b"]

    def test_read_past_eof_empty(self):
        fs = FileSystem()
        node = fs.create("/x", b"ab")
        assert fs.read(node.ino, 5, 10) == b""


class TestBufferCache:
    def test_miss_then_hit(self):
        bc = BufferCache(nbufs=4)
        assert bc.lookup(1, 0) is None
        slot, ev = bc.install(1, 0)
        assert ev is None
        assert bc.lookup(1, 0) == slot
        assert bc.hits == 1 and bc.misses == 1

    def test_lru_eviction_order(self):
        bc = BufferCache(nbufs=2)
        bc.install(1, 0)
        bc.install(1, 1)
        bc.lookup(1, 0)
        _slot, ev = bc.install(1, 2)
        assert ev == (1, 1, False)
        assert bc.resident(1, 0) and not bc.resident(1, 1)

    def test_dirty_eviction_flagged(self):
        bc = BufferCache(nbufs=1)
        bc.install(1, 0)
        bc.mark_dirty(1, 0)
        _slot, ev = bc.install(1, 1)
        assert ev == (1, 0, True)
        assert bc.dirty_evictions == 1

    def test_install_existing_is_promote(self):
        bc = BufferCache(nbufs=2)
        s1, _ = bc.install(1, 0)
        s2, ev = bc.install(1, 0)
        assert s1 == s2 and ev is None
        assert bc.occupancy == 1

    def test_clean_clears_dirty(self):
        bc = BufferCache(nbufs=2)
        bc.install(1, 0)
        bc.mark_dirty(1, 0)
        assert bc.is_dirty(1, 0)
        bc.clean(1, 0)
        assert not bc.is_dirty(1, 0)

    def test_dirty_blocks_of_sorted(self):
        bc = BufferCache(nbufs=8)
        for blk in (3, 1, 2):
            bc.install(7, blk)
            bc.mark_dirty(7, blk)
        bc.install(9, 0)
        bc.mark_dirty(9, 0)
        assert bc.dirty_blocks_of(7) == [(7, 1), (7, 2), (7, 3)]

    def test_addresses_distinct_per_slot(self):
        bc = BufferCache(nbufs=4, bsize=4096)
        addrs = {bc.data_addr(i) for i in range(4)}
        assert len(addrs) == 4
        assert all(a % 4096 == 0 for a in addrs)

    def test_zero_bufs_rejected(self):
        with pytest.raises(ValueError):
            BufferCache(nbufs=0)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 9)),
                    min_size=1, max_size=100))
    def test_occupancy_bounded_and_mru_resident(self, refs):
        bc = BufferCache(nbufs=4)
        last = None
        for ino, blk in refs:
            if bc.lookup(ino, blk) is None:
                bc.install(ino, blk)
            last = (ino, blk)
            assert bc.occupancy <= 4
            assert bc.resident(*last)
