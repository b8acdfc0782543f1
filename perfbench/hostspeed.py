"""How fast the host runs right now, from a fixed calibration loop.

The benchmark's hosts are small shared machines whose speed drifts by up
to 1.5x within a minute as neighbours load them. Every timing the
benchmark reports as an end-to-end metric is therefore scaled to a
reference host speed: measured seconds x REFERENCE_S / (seconds the
calibration loop took around the measurement). The loop mixes
interpreter work (a dict update loop) with memory-bound NumPy work, as
the program does; it runs none of the program's code, so a change to the
program cannot move it. Raw timings are printed alongside.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# seconds the loop takes on the reference host: one core of a 2-vCPU
# x86-64 virtual machine running Python 3.11 and NumPy 2.4
REFERENCE_S = 0.05


def calibration_seconds():
    start = perf_counter()
    counts = {}
    for i in range(200_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    a = np.linspace(0.0, 1.0, 100_000)  # small, so it adds nothing to peak memory
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - start


def scale(before, after):
    """Factor that turns seconds measured between two calibrations into
    reference-host seconds."""
    return REFERENCE_S / (0.5 * (before + after))
