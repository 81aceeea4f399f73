"""Finite photon-number distributions.

Construction (Poisson, Fock), binomial-thinning loss channels and moments.  A
`Pmf` is the common currency of the whole package: every source model and
detector map consumes and produces one.  Poisson and binomial weights are
evaluated in log space from a table of log-factorials.

All values are immutable after construction and all operations are pure, so
they can be shared freely across threads and sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Constructors truncate at this tail mass unless told otherwise.
DEFAULT_TRUNCATION_EPS = 1e-12

# Loosest truncation a constructor accepts.  Also the hard cap on the cutoff
# mass a Pmf may accumulate through repeated transforms.
MAX_CUTOFF_MASS = 1e-9

_SLACK = 1e-13


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over photon number n = 0..n_max.

    `cutoff_mass` records the tail probability discarded at truncation.  It is
    never silently renormalized away: keeping it visible means a broken
    transform shows up as missing mass instead of being papered over.
    """

    probs: np.ndarray
    cutoff_mass: float = 0.0

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=np.float64))
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D sequence")
        if np.any(probs < 0.0) or np.any(probs > 1.0 + _SLACK):
            raise ValueError("pmf entries must lie in [0, 1]")
        probs = _trim_trailing_zeros(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        total = float(probs.sum())
        if total > 1.0 + _SLACK:
            raise ValueError(f"pmf mass {total!r} exceeds 1")
        if abs((1.0 - total) - self.cutoff_mass) > _SLACK:
            raise ValueError("cutoff_mass inconsistent with 1 - sum(probs)")
        if self.cutoff_mass > MAX_CUTOFF_MASS + _SLACK:
            raise ValueError(
                f"cutoff mass {self.cutoff_mass!r} exceeds cap {MAX_CUTOFF_MASS}"
            )

    @classmethod
    def from_probs(cls, probs) -> "Pmf":
        """Build a Pmf from raw entries, recording 1 - sum as the cutoff."""
        probs = np.atleast_1d(np.asarray(probs, dtype=np.float64))
        return cls(probs, max(0.0, 1.0 - float(probs.sum())))

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def total_mass(self) -> float:
        return float(self.probs.sum())

    def prob(self, n: int) -> float:
        """P(n), zero beyond the truncated support."""
        if n < 0:
            raise ValueError("photon number must be >= 0")
        return float(self.probs[n]) if n <= self.n_max else 0.0


@dataclass(frozen=True)
class Moments:
    """Mean, variance and Fano factor (variance/mean, None for a vacuum)."""

    mean: float
    variance: float
    fano: float | None


def _trim_trailing_zeros(probs: np.ndarray) -> np.ndarray:
    nz = np.nonzero(probs)[0]
    last = int(nz[-1]) if nz.size else 0
    return np.ascontiguousarray(probs[: last + 1])


def vacuum_pmf() -> Pmf:
    return Pmf(np.array([1.0]))


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


def poisson_pmf(mu: float, eps: float = DEFAULT_TRUNCATION_EPS) -> Pmf:
    """Poisson photon-number distribution with mean `mu`.

    The support is truncated once the discarded tail is below `eps`; the
    actual cutoff is pushed well under `eps` so that second moments of the
    truncated distribution stay accurate.
    """
    if mu < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    if not 0.0 < eps <= 1e-9:
        raise ValueError(f"truncation tolerance must be in (0, 1e-9], got {eps}")
    if mu == 0.0:
        return vacuum_pmf()
    return Pmf.from_probs(poisson_rows(mu, poisson_support(mu, eps * 1e-4)))


def fock_pmf(n: int) -> Pmf:
    """Number state: probability 1 at exactly `n` photons."""
    if n != int(n) or n < 0:
        raise ValueError(f"photon number must be a non-negative integer, got {n}")
    probs = np.zeros(int(n) + 1)
    probs[int(n)] = 1.0
    return Pmf(probs)


def loss_matrix(transmission: float, n_max: int) -> np.ndarray:
    """Row-stochastic binomial thinning matrix M[n, k] = B(k | n, transmission)."""
    n = np.arange(n_max + 1)[:, None]
    k = n.T
    if transmission in (0.0, 1.0):
        return (k == n * transmission).astype(np.float64)
    lf = _log_factorials(n_max)
    log_m = (
        lf[n] - lf[k] - lf[np.abs(n - k)]
        + k * math.log(transmission) + (n - k) * math.log1p(-transmission)
    )
    return np.exp(np.where(k <= n, log_m, -np.inf))


def apply_loss(pmf: Pmf, transmission: float) -> Pmf:
    """Send `pmf` through a loss channel where each photon survives
    independently with probability `transmission` (binomial thinning)."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    if transmission == 1.0:
        return pmf
    if transmission == 0.0:
        return Pmf(np.array([1.0 - pmf.cutoff_mass]), pmf.cutoff_mass)
    out = pmf.probs @ loss_matrix(transmission, pmf.n_max)
    return Pmf.from_probs(out)


def moments(pmf: Pmf) -> Moments:
    """Mean and variance by direct summation over the support."""
    ns = np.arange(pmf.probs.size, dtype=np.float64)
    mean = float(ns @ pmf.probs)
    variance = float(((ns - mean) ** 2) @ pmf.probs)
    fano = variance / mean if mean > 0.0 else None
    return Moments(mean=mean, variance=variance, fano=fano)

