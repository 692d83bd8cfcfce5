"""Virtual memory manager tests (translation, shm, placement, faults)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MemoryError_
from repro.mem.pagetable import KERNEL_BASE, PhysMem, Vmm
from repro.mem.placement import PagePlacement


def make_vmm(nodes=2, placement="first_touch", cpus=4):
    return Vmm(nodes, 1 << 24, 4096, placement, cpus)


class TestPhysMem:
    def test_alloc_from_node(self):
        pm = PhysMem(2, 1 << 20, 4096)
        ppn = pm.alloc(1)
        assert pm.home_node(ppn) == 1

    def test_spill_when_node_full(self):
        pm = PhysMem(2, 8192, 4096)   # 2 frames per node
        pm.alloc(0), pm.alloc(0)
        assert pm.home_node(pm.alloc(0)) == 1   # spilled

    def test_out_of_memory(self):
        pm = PhysMem(1, 4096, 4096)
        pm.alloc(0)
        with pytest.raises(MemoryError_):
            pm.alloc(0)


class TestPlacement:
    def test_first_touch_uses_accessor(self):
        p = PagePlacement("first_touch", 4)
        assert p.place(0, 10, 3) == 3

    def test_round_robin_cycles(self):
        p = PagePlacement("round_robin", 3)
        assert [p.place(i, 10, 0) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_block_contiguous_runs(self):
        p = PagePlacement("block", 2)
        homes = [p.place(i, 8, 0) for i in range(8)]
        assert homes == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_single_node_always_zero(self):
        for pol in ("first_touch", "round_robin", "block"):
            p = PagePlacement(pol, 1)
            assert p.place(5, 10, 0) == 0


class TestTranslation:
    def test_anon_first_touch_minor_fault(self):
        v = make_vmm()
        v.new_space(1)
        v.map_anon(1, 0x10000, 1 << 20)
        paddr, major, minor = v.translate(1, 0x10123, False, 0)
        assert major is None and minor
        assert paddr % 4096 == 0x123
        # second access: no fault, same frame
        paddr2, _, minor2 = v.translate(1, 0x10456, False, 0)
        assert not minor2
        assert paddr2 // 4096 == paddr // 4096

    def test_first_touch_places_near_cpu(self):
        v = make_vmm(nodes=2, cpus=4)
        v.new_space(1)
        v.map_anon(1, 0x10000, 1 << 20)
        paddr, _, _ = v.translate(1, 0x10000, False, 3)   # cpu3 -> node 1
        assert v.home_of_paddr(paddr) == 1
        # the protocols' line-granular home function agrees, up to the
        # last line of the frame
        home_of_line = v.line_home_fn(32)
        assert home_of_line(paddr // 32) == 1
        assert home_of_line((paddr + 4095) // 32) == 1
        paddr0, _, _ = v.translate(1, 0x20000, False, 0)   # cpu0 -> node 0
        assert home_of_line(paddr0 // 32) == v.home_of_paddr(paddr0) == 0

    def test_segfault_outside_vma(self):
        v = make_vmm()
        v.new_space(1)
        with pytest.raises(MemoryError_):
            v.translate(1, 0xDEAD000, False, 0)

    def test_kernel_space_shared_between_pids(self):
        v = make_vmm()
        v.new_space(1)
        v.new_space(2)
        k = KERNEL_BASE + 0x1234
        p1, _, _ = v.translate(1, k, True, 0)
        p2, _, m2 = v.translate(2, k, False, 1)
        assert p1 == p2 and not m2

    def test_overlapping_vma_rejected(self):
        v = make_vmm()
        v.new_space(1)
        v.map_anon(1, 0x10000, 0x10000)
        with pytest.raises(MemoryError_):
            v.map_anon(1, 0x18000, 0x10000)

    def test_vma_cannot_cross_kernel_base(self):
        v = make_vmm()
        v.new_space(1)
        with pytest.raises(MemoryError_):
            v.map_anon(1, KERNEL_BASE - 4096, 8192)

    def test_unmap_drops_translations(self):
        v = make_vmm()
        v.new_space(1)
        v.map_anon(1, 0x10000, 0x10000)
        v.translate(1, 0x10000, False, 0)
        v.unmap(1, 0x10000)
        with pytest.raises(MemoryError_):
            v.translate(1, 0x10000, False, 0)


class TestSharedMemory:
    def test_shmget_idempotent_by_key(self):
        v = make_vmm()
        assert v.shmget(42, 8192) == v.shmget(42, 8192)

    def test_shmat_shares_frames(self):
        v = make_vmm()
        v.new_space(1)
        v.new_space(2)
        shmid = v.shmget(1, 8192)
        v.shmat(1, shmid, 0x40000000)
        v.shmat(2, shmid, 0x50000000)
        p1, _, _ = v.translate(1, 0x40000100, True, 0)
        p2, _, _ = v.translate(2, 0x50000100, False, 1)
        assert p1 == p2

    def test_round_robin_homes_assigned_at_creation(self):
        v = make_vmm(placement="round_robin")
        shmid = v.shmget(9, 4096 * 4)
        seg = v.segment(shmid)
        assert all(p is not None for p in seg.pages)
        homes = [v.phys.home_node(p) for p in seg.pages]
        assert homes == [0, 1, 0, 1]

    def test_first_touch_homes_assigned_lazily(self):
        v = make_vmm(placement="first_touch")
        v.new_space(1)
        shmid = v.shmget(9, 4096 * 4)
        seg = v.segment(shmid)
        assert all(p is None for p in seg.pages)
        v.shmat(1, shmid, 0x40000000)
        v.translate(1, 0x40000000 + 4096, False, 3)   # cpu3 -> node1
        assert seg.pages[1] is not None
        assert v.phys.home_node(seg.pages[1]) == 1

    def test_nattach_tracking(self):
        v = make_vmm()
        v.new_space(1)
        shmid = v.shmget(5, 4096)
        v.shmat(1, shmid, 0x40000000)
        assert v.segment(shmid).nattach == 1
        v.shmdt(1, 0x40000000)
        assert v.segment(shmid).nattach == 0

    def test_access_past_segment_end(self):
        v = make_vmm()
        v.new_space(1)
        shmid = v.shmget(5, 4096)
        v.shmat(1, shmid, 0x40000000)
        with pytest.raises(MemoryError_):
            v.translate(1, 0x40000000 + 8192, False, 0)


class TestFileMappings:
    def test_major_fault_then_resident(self):
        v = make_vmm()
        v.new_space(1)
        v.map_file(1, 0x20000, 8192, file_key=77, offset=0)
        paddr, major, _ = v.translate(1, 0x20000, False, 0)
        assert major is not None and major.page_index == 0
        v.install_file_page(77, 0, 0)
        paddr, major, minor = v.translate(1, 0x20000, False, 0)
        assert major is None and minor
        # now cached in the page table
        _, _, minor2 = v.translate(1, 0x20000, False, 0)
        assert not minor2

    def test_file_offset_shifts_page_index(self):
        v = make_vmm()
        v.new_space(1)
        v.map_file(1, 0x20000, 8192, file_key=7, offset=3 * 4096)
        _, major, _ = v.translate(1, 0x20000 + 4096, False, 0)
        assert major.page_index == 4

    def test_file_pages_shared_between_processes(self):
        v = make_vmm()
        v.new_space(1)
        v.new_space(2)
        v.map_file(1, 0x20000, 4096, file_key=7)
        v.map_file(2, 0x30000, 4096, file_key=7)
        v.install_file_page(7, 0, 0)
        p1, _, _ = v.translate(1, 0x20000, False, 0)
        p2, _, _ = v.translate(2, 0x30000, False, 0)
        assert p1 == p2


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans(),
                          st.integers(0, 3)), min_size=1, max_size=80))
def test_translation_stable_under_repetition(accesses):
    """Translating the same vaddr twice always yields the same paddr."""
    v = Vmm(2, 1 << 22, 4096, "first_touch", 4)
    v.new_space(1)
    v.map_anon(1, 0, 256 * 4096)
    seen = {}
    for page, write, cpu in accesses:
        vaddr = page * 4096 + 8
        paddr, major, _ = v.translate(1, vaddr, write, cpu)
        assert major is None
        if vaddr in seen:
            assert seen[vaddr] == paddr
        seen[vaddr] = paddr
