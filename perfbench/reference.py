"""Host-speed reference: a fixed scipy kernel timed between score ops.

On a shared host the speed of a vCPU drifts with other tenants' load, by up
to about 1.8x and for tens of seconds at a time.  The score op spends most
of its time in SSIM's single-threaded ``convolve2d``, which that drift hits
hardest: its median wall time spread more between runs of the same code than
any useful regression bound, and a longer run does not help, because the
slow spells last as long as a run.  So for score workloads the worker times
this kernel, the five ``convolve2d`` calls of SSIM on one 256x256 plane,
before the first op and after every op (a sample is the median of
``PASSES`` passes, so one stalled pass does not count), and scales each op::

    scaled = wall * NOMINAL_S / (mean of the samples just before and after the op)

the time the op would have taken had the host run the kernel at its nominal
speed.  The kernel is fixed code that never imports ``specrank``: a program
change moves the scaled time as it moves the wall time, while host drift
slows the op and the kernel alike and cancels.

Recon workloads have no kernel; their scaled time is their wall time.  Their
ops run LAPACK on every pinned BLAS thread and drifted little, and every
kernel tried (SVD, pivoted QR, Gram matrix, ``eigh``, ``convolve2d``) drifted
more than the ops and widened their spread instead of narrowing it.

    python3 perfbench/reference.py

prints the kernel's median pass time on this host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.signal import convolve2d

PASSES = 3

# Median seconds of one pass on the host the benchmark was built on (2-vCPU
# Intel Xeon VM, scipy 1.17.1).  It fixes the unit of the scaled times: they
# read as seconds on that host at its usual speed.
NOMINAL_S = 0.080

# Workload kinds that are scaled by the kernel.
SCALED_KINDS = ("score",)


class Reference:
    """The kernel, on fixed inputs made once."""

    def __init__(self):
        rng = np.random.default_rng(20250901)
        self.a = rng.random((256, 256))
        self.b = rng.random((256, 256))
        g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5**2))
        self.window = np.outer(g, g) / g.sum() ** 2
        self.run()  # first call pays for lazy set-up; not a sample

    def run(self) -> float:
        """Seconds one pass of the kernel takes now."""
        a, b = self.a, self.b
        t0 = time.perf_counter()
        for plane in (a, b, a * a, b * b, a * b):
            convolve2d(plane, self.window, mode="valid")
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median seconds of ``PASSES`` passes."""
        return statistics.median(self.run() for _ in range(PASSES))


def main() -> None:
    ref = Reference()
    times = [ref.run() for _ in range(31)]
    print(f"median pass {statistics.median(times):.4f} s (NOMINAL_S {NOMINAL_S} s)")


if __name__ == "__main__":
    main()
