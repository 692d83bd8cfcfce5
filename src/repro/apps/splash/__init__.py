"""SPLASH-2-style scientific kernels.

The paper's motivation: scientific applications "spend very little time in
the operating systems", so simulators that ignore the OS are fine for them —
and wrong for commercial workloads. These kernels provide that contrast
(near-zero OS time) and exercise the shared-memory/barrier machinery:
blocked LU decomposition, an Ocean-style stencil relaxation, and a parallel
radix sort.
"""

from .kernels import (KERNELS, lu_workers, ocean_workers, radix_workers,
                      spawn_kernel)

__all__ = ["KERNELS", "lu_workers", "ocean_workers", "radix_workers",
           "spawn_kernel"]
