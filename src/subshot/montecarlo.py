"""Seeded Monte Carlo engine.

Two jobs: validate the exact estimator reports by sampling full experiments,
and study what pump-power fluctuations do to the measurement error.

Both sample counts from `sources.source_count_rows` and clicks with
`sources.source_click_probability`; this module knows no source kind.
`mc_estimate` takes `exact_report`'s arguments plus a trial count and a seed.
It draws only the total count over the nu repetitions, which is all the
estimators read: Binomial(nu, p) clicks, or one inverse-CDF lookup in the
nu-fold convolution power of the detected-count row (`_total_count_row`).

In the fluctuation study the pump strength becomes a Gaussian random variable
(sigma = a * mean around the source's own pump, truncated at zero), the
source is re-evaluated for every draw, and the estimator keeps its
fluctuation-free reference normalization.  Each round yields one transmission
estimate and one squared error; rounds are summarized by their mean, its
standard error and the 16th/84th percentiles.  By default the pump is redrawn
once per round (slow drift relative to a round) and negative draws clamp to
zero; redrawing per repetition and rejection-resampling are available as
configuration.

Reproducibility: every round derives its generator stream from (seed, round
index), so results are independent of execution schedule.  The stream is
drawn once per round and shared by a whole block of fluctuation fractions
(common random numbers), which makes the MSE-versus-fluctuation curves smooth
rather than noisy; splitting the grid into blocks does not change a draw.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from subshot.detection import Channel
from subshot.estimators import Detector, reference_mean
from subshot.sources import Source, source_click_probability, source_count_rows, source_pump

# Count rows discard less than this mass per trimmed tail, far below the
# spacing of the uniforms they are sampled with.
_ROW_TAIL = 1e-18

# Pump draws evaluated together in the fluctuation study: each block of
# fluctuation fractions holds about this many pumps per round, so the
# (block, nu, count) comparison array stays small at any nu.
_PUMP_BLOCK = 4096


def _trim_tails(offset: int, row: np.ndarray) -> tuple[int, np.ndarray]:
    """Drop the entries at each end of `row` holding at most `_ROW_TAIL` in
    total, and normalize the rest; `offset` is the count of the first entry."""
    lo = int(np.searchsorted(np.cumsum(row), _ROW_TAIL, side="right"))
    hi = row.size - int(np.searchsorted(np.cumsum(row[::-1]), _ROW_TAIL, side="right"))
    kept = row[lo:hi]
    return offset + lo, kept / kept.sum()


def _total_count_row(row: np.ndarray, nu: int) -> tuple[int, np.ndarray]:
    """Distribution of the sum of `nu` independent counts distributed as `row`.

    Returns `(offset, probs)` with P(K = offset + i) = probs[i].  The power is
    formed by repeated squaring with direct convolution, which keeps every
    entry non-negative.  Both tails are trimmed after each product, so the
    row spans a few standard deviations of K and grows like sqrt(nu).  Each
    product is renormalized, since the power would otherwise raise the
    rounding error in the row's sum to the nu-th power.
    """
    offset, total = 0, np.ones(1)
    base_offset, base = _trim_tails(0, row)
    while True:
        if nu & 1:
            offset, total = _trim_tails(offset + base_offset, np.convolve(total, base))
        nu >>= 1
        if not nu:
            return offset, total
        base_offset, base = _trim_tails(2 * base_offset, np.convolve(base, base))


@dataclass(frozen=True)
class McEstimate:
    """Empirical estimator moments with standard errors."""

    expectation: float
    expectation_se: float
    mse: float
    mse_se: float


def mc_estimate(
    source: Source, detector: Detector, channel: Channel, nu: int, trials: int, seed: int
) -> McEstimate:
    """Sample `trials` independent nu-repetition experiments of the estimator
    `exact_report` evaluates at the same arguments.

    Each experiment draws its total count over the nu repetitions, divides it
    by nu times `reference_mean` and is compared against the true
    transmission; deterministic per seed.
    """
    if nu != int(nu) or nu < 1:
        raise ValueError(f"nu must be an integer >= 1, got {nu}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ref = reference_mean(source, detector, channel.detector_eff)
    rng = np.random.default_rng(seed)

    if detector is Detector.THRESHOLD:
        p = source_click_probability(source, channel.survival)
        totals = rng.binomial(nu, p, size=trials)
    else:
        offset, row = _total_count_row(source_count_rows(source, channel.survival, _ROW_TAIL), nu)
        cdf = np.cumsum(row)
        u = rng.random(trials)
        totals = offset + np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)

    estimates = totals / (nu * ref)
    sq_err = (estimates - channel.transmission) ** 2
    ddof = 1 if trials > 1 else 0
    return McEstimate(
        expectation=float(estimates.mean()),
        expectation_se=float(estimates.std(ddof=ddof) / math.sqrt(trials)),
        mse=float(sq_err.mean()),
        mse_se=float(sq_err.std(ddof=ddof) / math.sqrt(trials)),
    )


class PumpRedraw(enum.Enum):
    """How often the fluctuating pump strength is redrawn."""

    PER_REPETITION = "per-repetition"
    PER_ROUND = "per-round"


class NegativeDraws(enum.Enum):
    """What to do with Gaussian pump draws below zero."""

    RESAMPLE = "resample"
    CLAMP = "clamp"


@dataclass(frozen=True)
class FluctuationConfig:
    """Configuration of the pump-fluctuation study.

    `a_grid` holds the fluctuation fractions (sigma = a * mean); rounds is the
    number of MSE-evaluation rounds per grid point and nu the repetitions per
    round.
    """

    a_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    rounds: int = 50
    nu: int = 200
    redraw: PumpRedraw = PumpRedraw.PER_ROUND
    negatives: NegativeDraws = NegativeDraws.CLAMP

    def __post_init__(self):
        if not self.a_grid:
            raise ValueError("a_grid must be non-empty")
        for a in self.a_grid:
            if not 0.0 <= a <= 0.6:
                raise ValueError(f"fluctuation fraction must lie in [0, 0.6], got {a}")
        if self.rounds < 2:
            raise ValueError(f"rounds must be >= 2, got {self.rounds}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")


@dataclass(frozen=True)
class McSummary:
    """Per-grid-point summary: mean MSE, its standard error across rounds
    (std(ddof=1) / sqrt(rounds)) and the 68% band of the rounds."""

    fluctuation: float
    mean_mse: float
    mse_se: float
    ci_low: float
    ci_high: float


def _sample_counts_by_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per uniform; `rows` carries a count axis after axes
    that broadcast against `u` (one row per uniform, per leading index, or a
    single row shared by all of them)."""
    cdf = np.cumsum(rows, axis=-1)
    counts = (cdf < u[..., None]).sum(axis=-1)
    return np.minimum(counts, rows.shape[-1] - 1)


def _pumps_from_noise(
    rng: np.random.Generator,
    mu0: float,
    a: np.ndarray,
    z: np.ndarray,
    negatives: NegativeDraws,
) -> np.ndarray:
    """Pump strengths mu0 * (1 + a*z) for a column of fluctuation fractions,
    truncated at zero; row i belongs to a[i].

    `z` holds one normal per round (per-round redraw) or one per repetition,
    so each row broadcasts against the repetitions' uniforms either way.
    Resampling draws its replacement normals after the shared noise, and every
    row restarts from the generator state there, so each `a` sees the
    replacement normals it would see alone.
    """
    mu = mu0 * (1.0 + a[:, None] * z)
    if negatives is NegativeDraws.CLAMP:
        return np.maximum(mu, 0.0)
    state = rng.bit_generator.state
    for ai, row in zip(a, mu):
        rng.bit_generator.state = state
        bad = row < 0
        while bad.any():
            row[bad] = mu0 * (1.0 + ai * rng.standard_normal(int(bad.sum())))
            bad = row < 0
    return mu


def fluctuation_study(
    cfg: FluctuationConfig,
    source: Source,
    detector: Detector,
    channel: Channel,
    seed: int,
) -> list[McSummary]:
    """MSE versus pump-fluctuation size for one source/detector combination.

    The nominal pump is the one `source` carries (the coherent mean or the
    multiplexed pair mean).  Runs cfg.rounds rounds; each round draws its
    pump noise (once per round by default, per repetition if configured) and
    its detection uniforms once, evaluates them for a block of fluctuation
    fractions `a` at a time, forms each transmission estimate with the
    fluctuation-free reference, and records its squared error against the
    true transmission.
    """
    mu0 = source_pump(source)
    ref0 = reference_mean(source, detector, channel.detector_eff)
    t, s = channel.transmission, channel.survival
    n_noise = cfg.nu if cfg.redraw is PumpRedraw.PER_REPETITION else 1
    a_grid = np.asarray(cfg.a_grid, dtype=np.float64)
    step = max(1, _PUMP_BLOCK // cfg.nu)
    sq_err = np.empty((a_grid.size, cfg.rounds))
    for start in range(0, a_grid.size, step):
        block = slice(start, start + step)
        for r in range(cfg.rounds):
            # Same (seed, round) stream for every a: common random numbers.
            rng = np.random.default_rng([seed, r])
            z = rng.standard_normal(n_noise)
            u = rng.random(cfg.nu)
            mu = _pumps_from_noise(rng, mu0, a_grid[block], z, cfg.negatives)
            # Each branch keeps only the totals: holding the (block, nu)
            # counts into the next round measured ~10% slower at nu = 1e5.
            if detector is Detector.NUMBER_RESOLVING:
                rows = source_count_rows(source, s, _ROW_TAIL, mu)
                totals = _sample_counts_by_rows(rows, u).sum(axis=1)
            else:
                totals = (u < source_click_probability(source, s, mu)).sum(axis=1)
            sq_err[block, r] = (totals / (cfg.nu * ref0) - t) ** 2

    summaries = []
    for ai, a in enumerate(cfg.a_grid):
        lo, hi = np.percentile(sq_err[ai], [16.0, 84.0])
        summaries.append(
            McSummary(
                fluctuation=a,
                mean_mse=float(sq_err[ai].mean()),
                mse_se=float(sq_err[ai].std(ddof=1) / math.sqrt(cfg.rounds)),
                ci_low=float(lo),
                ci_high=float(hi),
            )
        )
    return summaries
