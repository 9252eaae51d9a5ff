"""Host-speed reference that the benchmark's host times are scaled by.

Shared virtual machines change speed by tens of percent from one minute
to the next, which would swamp the differences the benchmark exists to
show.  Every host time the benchmark reports is therefore given at a
reference speed: a time ``t`` becomes ``t * REFERENCE_S / k``, where
``k`` is the time of :func:`kernel` measured next to ``t`` in the same
process.  The kernel mixes interpreter work (heap, dict, float) with
small-array NumPy updates, the two kinds of work the workloads do, and
touches no ``repro`` code, so a change to ``repro`` moves a scaled time
by the same fraction as the raw one.
"""

import heapq
import time

import numpy as np

#: Seconds :func:`kernel` takes at reference speed.
REFERENCE_S = 0.025

_TILE = np.arange(65 * 65, dtype=np.int64).reshape(65, 65) % 251 - 125


def kernel() -> float:
    """Run the fixed reference work once; returns its host seconds."""
    start = time.perf_counter()
    heap: list = []
    counts: dict = {}
    total = 0.0
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i))
        if len(heap) > 64:
            key, j = heapq.heappop(heap)
            counts[j % 97] = counts.get(j % 97, 0) + 1
            total += key
    acc = np.zeros_like(_TILE)
    for t in range(1_500):
        rows = t % 65 + 1
        acc[:rows] += _TILE[:rows] * (t % 7 - 3)
    return time.perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at reference speed, given a kernel time measured with it."""
    return seconds * REFERENCE_S / kernel_s
