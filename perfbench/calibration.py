"""A fixed CPU kernel that measures how fast the machine runs right now.

The benchmark runs on shared virtual machines whose effective CPU speed
drifts.  On a 2-vCPU VM with no steal time reported, one sweep-mu pass
took 1.2 s in some minutes and 2.2 s in others.  The CPU time of the
process moved with the wall time, so the slowdown comes from the host,
not from waiting in the guest.  The benchmark therefore times this kernel
just before and just after every set-up probe and every pass, and scales
that timing by REFERENCE_SECONDS over their mean.  Over 10 runs per
workload with different seeds, this cut the run-to-run IQR of the median
pass time, as a share of its median, from 0.15 to 0.055 on sweep-mu, from
0.14 to 0.04 on spectra (7 runs) and from 0.14 to 0.11 on spread, whose
passes are long compared with the swings.

The kernel never calls nlinvade, so no change to the program can change
it.  It mixes the three kinds of work the workloads do: Python-level
stepping on a small window with numpy calls, long convolutions (direct
and overlap-add), and a dense nonsymmetric eigensolve.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.signal import oaconvolve

# Scaled times are in seconds at the speed where one kernel run takes this
# long (about what it took on the fast state of the machine above).
REFERENCE_SECONDS = 0.1

_X = np.linspace(0.0, 1.0, 209)
_STENCIL = np.full(81, 1.0 / 81.0)
_LONG = np.sin(np.linspace(0.0, 50.0, 3000))
_DENSE = np.add.outer(np.arange(280.0), np.arange(280.0)) % 7.0 + np.eye(280)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = perf_counter()
    u = np.cos(_X)
    for _ in range(2800):
        c = np.convolve(u, _STENCIL, mode="same")
        u = np.where(_X > 0.05, 0.5 * (u + c), 0.0)
        s = float(np.dot(u, u))
        for i in range(40):
            s += i * 0.5
    for _ in range(130):
        np.convolve(_LONG, _STENCIL, mode="same")
        oaconvolve(_LONG, _STENCIL, mode="same")
    np.linalg.eig(_DENSE)
    return perf_counter() - t0
