"""Host speed, read from a fixed loop that does not depend on the program.

The machines this benchmark runs on lend a core whose speed moves by up to
a factor of two over seconds to minutes, while process CPU time still
equals wall time. The loop below, the numpy calls of one GPC learner
step, slows with the host. A time multiplied by the host's speed, the
loop's rate over REFERENCE_RATE, reads as it would on the reference host.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Iterations per second of the loop on a host of reference speed, by the
# loop's array width: near the median rates on the machine that README.md's
# reference figures come from.
REFERENCE_RATE = {1: 50_000.0, 100: 5_000.0}
ITERATIONS = {1: 1000, 100: 50}


def width(d: int) -> int:
    """Loop width for action dimension d: 1 is call-bound, 100 bound by (5, 100, 100) arrays."""
    return 100 if d >= 10 else 1


def speed(w: int) -> float:
    """The host's speed now relative to the reference host, from the loop at width w."""
    iterations = ITERATIONS[w]
    M = np.zeros((5, w, w))
    u = np.ones((5, w))
    start = time.perf_counter()
    for i in range(iterations):
        raw = np.einsum("mdk,mk->d", M, u[::-1])
        n = float(np.linalg.norm(raw))
        g = np.stack([raw, raw])
        M = M - 0.01 * np.einsum("jd,jmk->mdk", g[:1], u[None])
        n += math.sqrt(i + 1.0)
    return iterations / (time.perf_counter() - start) / REFERENCE_RATE[w]
