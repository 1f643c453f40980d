"""Host-speed calibration: a fixed kernel timed between the program's commands.

On a shared host the speed available to one process drifts: for tens of
seconds at a time, every command of a round can run 10-20% slower, and no
statistic over the program's own latencies removes that.  The benchmark
therefore runs this kernel, which uses nothing of chiralpulse, after every
command, and reports end-to-end times divided by `slowdown`: the time each
command would take on a host where the kernel takes `REFERENCE_S`.  The
kernel mixes the two kinds of work the program does -- small batched numpy
linear algebra on a 4000-step grid and formatting 4000 CSV rows in the
interpreter -- so interference slows it about as much as it slows the
commands around it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time at the reference speed, by the statistic that reduces the
# kernel times: about its best and its median time between the benchmark's
# commands on a shared 2-vCPU Xeon (Sapphire Rapids) VM, so that reported
# times read close to raw ones there.
REFERENCE_S = {"min": 0.010, "median": 0.018}
REDUCE = {"min": min, "median": statistics.median}
STEPS = 4000

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((STEPS, 3, 3))
_H = _H + _H.transpose(0, 2, 1)
_T = np.linspace(0.0, 1.0, STEPS + 1)


def kernel() -> float:
    """Run the calibration kernel once; returns its duration in seconds."""
    t0 = time.perf_counter()
    w, v = np.linalg.eigh(_H)
    np.einsum("nij,nj->ni", v, np.exp(1j * w))
    np.cos(_T) * np.sinh(_T) + np.arctan(_T)
    "".join(["%.17g,%.17g\n" % (i * 0.25, i * 0.5) for i in range(STEPS)])
    return time.perf_counter() - t0


def slowdown(kernel_times: list, statistic: str) -> float:
    """Kernel time over its reference time; > 1 when the host ran slower."""
    return REDUCE[statistic](kernel_times) / REFERENCE_S[statistic]
