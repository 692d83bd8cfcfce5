"""Scientific kernels over a shared array segment.

Each kernel spawns P worker processes that attach one shared segment
(shmget/shmat — the §3.3.1 path) holding the matrix/grid/keys, then iterate
with barriers. Memory reference streams follow the real algorithms' shapes:
LU touches shrinking trailing submatrices, Ocean sweeps a 5-point stencil,
radix makes two passes (histogram, permute) with all-to-all writes.

FP work per element is charged with ``compute``; element addresses are laid
out row-major with 8-byte doubles, so cache lines, NUMA placement and
coherence behave exactly as they would for the real data.
"""

from __future__ import annotations

from typing import Callable, List

from ...core.engine import Engine
from ...core.frontend import Proc, SimProcess

#: shared segment base for kernel data
ARRAY_BASE = 0xB400_0000
_KERNEL_SHM_KEY = 0x51A5

#: barrier id namespace
_BAR = 90


def _elem(base: int, n: int, i: int, j: int) -> int:
    """Address of A[i][j] in a row-major n×n double matrix."""
    return base + (i * n + j) * 8


def lu_workers(nproc: int, n: int = 64, block: int = 8):
    """Blocked LU: worker ``p`` owns interleaved block-columns. Returns a
    list of app factories."""
    if n % block:
        raise ValueError("n must be a multiple of block")
    nblocks = n // block

    def make(p: int) -> Callable[[Proc], object]:
        def body(proc: Proc):
            r = yield from proc.call("shmget", _KERNEL_SHM_KEY, n * n * 8)
            r = yield from proc.call("shmat", r.value, ARRAY_BASE)
            base = r.value
            for k in range(nblocks):
                # factor diagonal block (owner only)
                if k % nproc == p:
                    for i in range(block):
                        for j in range(block):
                            yield from proc.load(
                                _elem(base, n, k * block + i, k * block + j), 8)
                        proc.compute(3 * block)
                        yield from proc.store(
                            _elem(base, n, k * block + i, k * block), 8)
                yield from proc.barrier(_BAR, nproc)
                # update trailing blocks this worker owns
                for jb in range(k + 1, nblocks):
                    if jb % nproc != p:
                        continue
                    for ib in range(k + 1, nblocks):
                        for i in range(block):
                            yield from proc.load(
                                _elem(base, n, ib * block + i, k * block), 8)
                            yield from proc.load(
                                _elem(base, n, k * block, jb * block + i), 8)
                            proc.compute(3 * block)
                            yield from proc.store(
                                _elem(base, n, ib * block + i,
                                      jb * block + i % block), 8)
                yield from proc.barrier(_BAR, nproc)
            yield from proc.call("shmdt", ARRAY_BASE)
            yield from proc.exit(0)
        return body

    return [make(p) for p in range(nproc)]


def ocean_workers(nproc: int, n: int = 64, iters: int = 4):
    """Ocean-style red-black stencil: each worker sweeps a band of rows."""
    def make(p: int) -> Callable[[Proc], object]:
        def body(proc: Proc):
            r = yield from proc.call("shmget", _KERNEL_SHM_KEY + 1, n * n * 8)
            r = yield from proc.call("shmat", r.value, ARRAY_BASE + 0x100_0000)
            base = r.value
            lo = 1 + (p * (n - 2)) // nproc
            hi = 1 + ((p + 1) * (n - 2)) // nproc
            for _it in range(iters):
                for color in (0, 1):
                    for i in range(lo, hi):
                        for j in range(1 + (i + color) % 2, n - 1, 2):
                            yield from proc.load(_elem(base, n, i - 1, j), 8)
                            yield from proc.load(_elem(base, n, i + 1, j), 8)
                            yield from proc.load(_elem(base, n, i, j - 1), 8)
                            yield from proc.load(_elem(base, n, i, j + 1), 8)
                            proc.compute(12)   # 4 FP adds + mul
                            yield from proc.store(_elem(base, n, i, j), 8)
                    yield from proc.barrier(_BAR + 1, nproc)
            yield from proc.call("shmdt", ARRAY_BASE + 0x100_0000)
            yield from proc.exit(0)
        return body

    return [make(p) for p in range(nproc)]


def radix_workers(nproc: int, nkeys: int = 4096, radix_bits: int = 8):
    """Parallel radix sort: per-pass local histogram, prefix merge at a
    barrier, then all-to-all permutation writes (heavy sharing)."""
    buckets = 1 << radix_bits

    def make(p: int) -> Callable[[Proc], object]:
        def body(proc: Proc):
            r = yield from proc.call("shmget", _KERNEL_SHM_KEY + 2,
                                     nkeys * 8 * 2 + buckets * nproc * 8)
            r = yield from proc.call("shmat", r.value, ARRAY_BASE + 0x200_0000)
            base = r.value
            keys = base
            out = base + nkeys * 8
            hist = base + nkeys * 16
            lo = (p * nkeys) // nproc
            hi = ((p + 1) * nkeys) // nproc
            for _pass in range(2):
                # local histogram
                for i in range(lo, hi):
                    yield from proc.load(keys + i * 8, 8)
                    proc.compute(4)
                    yield from proc.store(
                        hist + (p * buckets + (i * 2654435761 % buckets)) * 8, 8)
                yield from proc.barrier(_BAR + 2, nproc)
                # prefix-sum merge: read all workers' histograms
                for b in range(0, buckets, max(1, buckets // 32)):
                    for q in range(nproc):
                        yield from proc.load(hist + (q * buckets + b) * 8, 8)
                    proc.compute(2 * nproc)
                yield from proc.barrier(_BAR + 2, nproc)
                # permute: scattered writes into the output array
                for i in range(lo, hi):
                    yield from proc.load(keys + i * 8, 8)
                    dest = (i * 2654435761) % nkeys
                    yield from proc.store(out + dest * 8, 8)
                yield from proc.barrier(_BAR + 2, nproc)
                keys, out = out, keys
            yield from proc.call("shmdt", ARRAY_BASE + 0x200_0000)
            yield from proc.exit(0)
        return body

    return [make(p) for p in range(nproc)]


#: kernel name -> worker-factory maker
KERNELS = {"lu": lu_workers, "ocean": ocean_workers, "radix": radix_workers}


def spawn_kernel(engine: Engine, kind: str, nproc: int,
                 **kw) -> List[SimProcess]:
    """Spawn one of the ``KERNELS``."""
    if kind not in KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")
    bodies = KERNELS[kind](nproc, **kw)
    return [engine.spawn(f"{kind}-{p}", body)
            for p, body in enumerate(bodies)]
