"""Machine-speed probe, for job times at a fixed reference speed.

The benchmark shares a few cores of a host with other tenants. Their load
slows the program by up to half, in spells of seconds to minutes, so raw job
times of the same code spread too far between runs to show a regression.
A run therefore interleaves short fixed probes with its jobs. A probe does
the kind of work the program's hot loops do, interpreter arithmetic and
string formatting plus numpy calls on arrays of a few hundred elements, in
about 5 ms. It never calls the program, so a change to the program leaves
the probe alone.

The mean time of the probes run near a job, over ``REF_S``, is the job's
slowdown; its time divided by that is its time at the reference speed.
``REF_S`` is the mean probe time between jobs on the reference machine
(2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
"""
from __future__ import annotations

import gc
import time

REF_S = 0.0055


def probe(np) -> float:
    """Seconds one fixed unit of mixed interpreter and numpy work takes now.
    The garbage collector is off meanwhile, so the program's heap does not
    add to the time."""
    x = np.linspace(0.01, 0.99, 500)
    gc.disable()
    t0 = time.perf_counter()
    s = 0.0
    parts = []
    for j in range(3000):
        s = s * 0.999 + j * 1.5e-3
        parts.append(repr(s))
    ",".join(parts)
    for _ in range(100):
        y = np.exp(-x) * 0.5
        x = np.clip(np.cumsum(np.log1p(y)) / x.size, 0.0, 1.0) + 0.01 * (x > 0.5)
    seconds = time.perf_counter() - t0
    gc.enable()
    return seconds
