"""Photon-number distributions as rows of probabilities.

Poisson and binomial weights are evaluated in log space from one table of
log-factorials, which every row reads, at the length the caller gives
(`sources.CountRows` takes it from `sources.count_window`).  `Moments` is
the summary every closed-form source model returns: a mean and a variance,
floats or arrays over pumps, and nothing derived from them.  `log1p` is the
one log(1 + w) the generating functions of the sources and detectors take,
complex `w` included.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


# The smallest normal float64 (`np.finfo` would add 0.1 ms to the import).
_TINY = 2.2250738585072014e-308


class Moments(NamedTuple):
    """Mean and variance of a photon-number distribution."""

    mean: float
    variance: float


_log_factorial_table = np.empty(0)  # log(n!) for n = 0..size - 1, read-only once grown


def log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max: a read-only prefix of the module's one
    table, first grown entry by entry with `math.lgamma` where shorter, so
    that every prefix has the bits of a table built on its own."""
    global _log_factorial_table
    if (size := _log_factorial_table.size) <= n_max:
        grown = map(math.lgamma, map(float, range(size + 1, n_max + 2)))
        _log_factorial_table = np.append(_log_factorial_table, np.fromiter(grown, np.float64))
        _log_factorial_table.flags.writeable = False
    return _log_factorial_table[: n_max + 1]


def poisson_rows(mu, n_max: int) -> np.ndarray:
    """Poisson probabilities P(n; mu) for n = 0..n_max from `log_factorials`, one row per mean.

    `mu` is a float or an array of means >= 0; the result has shape
    `np.shape(mu) + (n_max + 1,)`.  A zero mean gives the vacuum row.
    """
    mu = np.asarray(mu, dtype=np.float64)[..., None]
    ns = np.arange(n_max + 1)
    live = mu > 0.0
    rows = ns * np.log(np.where(live, mu, 1.0))
    rows -= mu
    rows -= log_factorials(n_max)
    np.exp(rows, out=rows)
    return rows if live.all() else np.where(live, rows, ns == 0)


def binomial_row(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities for k = 0..n: each of n photons survives
    independently with probability `p`."""
    n = int(n)
    ks = np.arange(n + 1)
    if p in (0.0, 1.0):
        return (ks == n * p).astype(np.float64)
    lf = log_factorials(n)
    return np.exp(lf[n] - lf[ks] - lf[n - ks] + ks * math.log(p) + (n - ks) * math.log1p(-p))


def log1p(w) -> np.ndarray:
    """log(1 + w) of a real or complex array, precise where w is near 0.

    numpy's complex `log1p` is not (8e-8 relative at w = 1e-10 + 1e-12j),
    so the complex case is formed from real functions: the argument by
    `arctan2`, the log-modulus as log1p(|1 + w|^2 - 1) / 2 with
    |1 + w|^2 - 1 = a (2 + a) + b^2, or, where |1 + w|^2 < 1/2, as the log
    of |1 + w|, which keeps the absolute precision of 1 + w near 0 (a zero
    gives the log of the smallest normal float, not -inf, whose product
    with a complex number is NaN).  numpy's complex `expm1` keeps its
    precision (within 4.4e-16 relative over 20000 points near 0), so it has
    no counterpart here.
    """
    if not np.iscomplexobj(w):
        return np.log1p(w)
    a, b = w.real, w.imag
    excess = a * (2.0 + a) + b * b
    modulus = 0.5 * np.log1p(np.fmax(excess, -0.5))
    if (far := excess < -0.5).any():
        modulus[far] = np.log(np.fmax(np.hypot(1.0 + a[far], b[far]), _TINY))
    return modulus + 1j * np.arctan2(b, 1.0 + a)
