"""Machine-speed calibration for the benchmark's timed metrics.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass of the same code takes 2.0 s in one minute and 3.1 s a few minutes
later, and a fixed pure-Python loop slows down by the same factor.  Medians
over a run do not remove a drift that outlasts the run, so ten runs of the
same code would spread by more than any change worth measuring.

`block()` times a fixed reference kernel of the kinds of work the package
does: interpreted arithmetic and containers, small NumPy vectors, and
element-wise work on matrices.  `run.py` times a block before every measured
interval and after the last one, and rescales each interval by the mean of
the two blocks around it:

    rescaled = wall * REFERENCE_S / block_s

so a rescaled time is the interval's time on a machine on which one block
takes `REFERENCE_S` seconds.  A faster program lowers it; a slower host does
not.  The kernel and `REFERENCE_S` must never change, or figures from before
and after the change stop being comparable.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds a block takes at the reference speed (roughly this kernel's time on
# a 2.0 GHz Xeon vCPU of a quiet host).
REFERENCE_S = 0.05

_VECTOR = np.linspace(0.0, 1.0, 48)
_MATRIX = np.add.outer(np.linspace(0.0, 1.0, 160), np.linspace(0.0, 1.0, 160))


def _kernel() -> float:
    acc, table = 0.0, {}
    for i in range(80_000):
        acc += math.sqrt(i) * 0.5
        table[i & 255] = acc
    for _ in range(2_000):
        v = _VECTOR * 0.3 + 1.0
        v /= v.sum()
        acc += float(np.cumsum(v)[-1]) + float(v @ _VECTOR)
    for _ in range(80):
        m = np.exp(-_MATRIX) * _MATRIX
        acc += float(np.cumsum(m, axis=1)[:, -1].sum())
    return acc


def block() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def rescale(intervals: list[float], blocks: list[float]) -> list[float]:
    """Each interval at the reference speed; `blocks` has one block before
    every interval and one after the last."""
    if len(blocks) != len(intervals) + 1:
        raise ValueError("need one block before every interval and one after the last")
    return [t * REFERENCE_S * 2.0 / (before + after) for t, before, after in zip(intervals, blocks, blocks[1:])]
