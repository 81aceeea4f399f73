"""Photon-number distributions as rows of probabilities.

Poisson and binomial weights are evaluated in log space from a table of
log-factorials; `poisson_support` picks a truncation point for a wanted tail
mass.  `Moments` is the summary every closed-form source model returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Moments:
    """Mean, variance and Fano factor (variance/mean, None for a vacuum)."""

    mean: float
    variance: float
    fano: float | None


def poisson_support(mu: float, tail_target: float) -> int:
    """Smallest n with P(Poisson(mu) > n) <= tail_target.

    Works in log space on the term recurrence with a geometric tail bound, so
    it stays exact for tail targets far below float epsilon (where inverting a
    survival function in floating point degenerates).
    """
    if mu < 0:
        raise ValueError(f"mean must be >= 0, got {mu}")
    if not 0.0 < tail_target < 1.0:
        raise ValueError(f"tail target must lie in (0, 1), got {tail_target}")
    if mu == 0.0:
        return 0
    log_target = math.log(tail_target)
    log_term = -mu  # log pmf(0)
    n = 0
    while True:
        log_term_next = log_term + math.log(mu / (n + 1))
        # tail(n) <= pmf(n+1) / (1 - mu/(n+2)) once the terms decay geometrically
        if n + 2 > mu and log_term_next - math.log1p(-mu / (n + 2)) <= log_target:
            return n
        n += 1
        log_term = log_term_next
        if n > 10_000_000:
            raise RuntimeError("Poisson support search did not terminate")


def _log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max."""
    return np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)])


def poisson_rows(mu, n_max: int) -> np.ndarray:
    """Poisson probabilities P(n; mu) for n = 0..n_max, one row per mean.

    `mu` is a float or an array of means >= 0; the result has shape
    `np.shape(mu) + (n_max + 1,)`.  A zero mean gives the vacuum row.
    """
    mu = np.asarray(mu, dtype=np.float64)[..., None]
    ns = np.arange(n_max + 1)
    live = mu > 0.0
    log_mu = np.log(np.where(live, mu, 1.0))
    rows = np.exp(ns * log_mu - mu - _log_factorials(n_max))
    return np.where(live, rows, ns == 0)


def binomial_row(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities for k = 0..n: each of n photons survives
    independently with probability `p`."""
    n = int(n)
    ks = np.arange(n + 1)
    if p in (0.0, 1.0):
        return (ks == n * p).astype(np.float64)
    lf = _log_factorials(n)
    return np.exp(lf[n] - lf[ks] - lf[n - ks] + ks * math.log(p) + (n - ks) * math.log1p(-p))
