"""Seeded Monte Carlo engine.

Two jobs: validate the exact estimator reports by sampling full experiments,
and study what pump-power fluctuations do to the measurement error.

Both jobs sample number-resolving counts from the same closed-form
detected-count rows (`_count_rows`: a Poisson row for coherent light, a
Binomial row for a Fock state, `sources.mux_output_rows` for the multiplexed
source) and threshold clicks from the closed-form click probability.

In the fluctuation study the pump strength becomes a Gaussian random variable
(sigma = a * mean around the source's own pump, truncated at zero), the
source is re-evaluated for every draw, and the estimator keeps its
fluctuation-free reference normalization.  Each round yields one transmission
estimate and one squared error; rounds are summarized by their mean, its
standard error and the 16th/84th percentiles.  By default the pump is redrawn
once per round (slow drift relative to a round) and negative draws clamp to
zero; redrawing per repetition and rejection-resampling are available as
configuration.

Reproducibility: every (round) unit derives its generator stream from
(seed, round index), so results are independent of execution schedule, and the
same stream is reused across the fluctuation grid (common random numbers),
which makes the MSE-versus-fluctuation curves smooth rather than noisy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from subshot.detection import Channel
from subshot.estimators import Detector, EstimatorSpec, make_estimator_spec
from subshot.pmf import binomial_row, poisson_rows, poisson_support
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    Source,
    mux_click_probability,
    mux_output_rows,
    source_click_probability,
)

# Detected-count rows discard less than this beyond their last photon number,
# far below the spacing of the uniforms they are sampled with.
_ROW_TAIL = 1e-18

# Experiments per block of uniforms in `mc_estimate`; bounds the memory held
# at once without changing the stream.
_CHUNK_TRIALS = 20_000


def _pump(source: Source) -> float:
    """Pump strength `source` runs at: the coherent mean or the multiplexed
    pair mean."""
    if isinstance(source, Coherent):
        return source.mean
    if isinstance(source, Multiplexed):
        return source.params.pair_mean
    raise TypeError(f"not a pump-driven source (coherent or multiplexed): {source!r}")


def _count_rows(source: Source, survival: float, mu=None) -> np.ndarray:
    """Detected-count distribution of `source` after per-photon survival
    `survival`, in closed form.

    `mu` is a pump value or an array of them (default: the source's own
    pump); the result has shape `np.shape(mu) + (n_max + 1,)`.  A Fock state
    has no pump and gives its single Binomial(N, survival) row.
    """
    if isinstance(source, Fock):
        return binomial_row(source.photons, survival)
    mu = np.asarray(_pump(source) if mu is None else mu, dtype=np.float64)
    if isinstance(source, Coherent):
        # Coherent output mean scales linearly with pump strength.
        lam = survival * mu
        return poisson_rows(lam, poisson_support(float(lam.max()), _ROW_TAIL))
    return mux_output_rows(source.params, mu, survival, _ROW_TAIL)


@dataclass(frozen=True)
class McEstimate:
    """Empirical estimator moments with standard errors."""

    expectation: float
    expectation_se: float
    mse: float
    mse_se: float
    trials: int
    seed: int


def mc_estimate(
    spec: EstimatorSpec,
    channel: Channel,
    trials: int,
    seed: int,
) -> McEstimate:
    """Sample `trials` independent nu-repetition experiments.

    Each experiment applies the estimator matching `spec.detector` and is
    compared against the true transmission; deterministic per seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    nu, ref = spec.nu, spec.reference_mean
    estimates = np.empty(trials)

    if spec.detector is Detector.THRESHOLD:
        p = source_click_probability(spec.source, channel.survival)
        clicks = rng.binomial(nu, p, size=trials)
        estimates[:] = clicks / (nu * ref)
    else:
        cdf = np.cumsum(_count_rows(spec.source, channel.survival))
        done = 0
        while done < trials:
            n = min(_CHUNK_TRIALS, trials - done)
            u = rng.random((n, nu))
            counts = np.minimum(
                np.searchsorted(cdf, u.ravel(), side="right"), cdf.size - 1
            ).reshape(n, nu)
            estimates[done : done + n] = counts.sum(axis=1) / (nu * ref)
            done += n

    sq_err = (estimates - channel.transmission) ** 2
    ddof = 1 if trials > 1 else 0
    return McEstimate(
        expectation=float(estimates.mean()),
        expectation_se=float(estimates.std(ddof=ddof) / math.sqrt(trials)),
        mse=float(sq_err.mean()),
        mse_se=float(sq_err.std(ddof=ddof) / math.sqrt(trials)),
        trials=trials,
        seed=seed,
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
    n_rounds: int
    seed: int


def _sample_counts_by_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per uniform; `rows` is one row per uniform or a
    single row shared by all of them."""
    cdf = np.cumsum(rows, axis=-1)
    counts = (cdf < u[:, None]).sum(axis=-1)
    return np.minimum(counts, rows.shape[-1] - 1)


def _pumps_from_noise(
    rng: np.random.Generator,
    mu0: float,
    a: float,
    z: np.ndarray,
    negatives: NegativeDraws,
) -> np.ndarray:
    """Pump strengths mu0 * (1 + a*z), truncated at zero.

    `z` holds one normal per round (per-round redraw) or one per repetition,
    so the result broadcasts against the repetitions' uniforms either way.
    Resampling draws its replacement normals after the shared noise blocks, so
    different `a` values on the same stream still see identical base noise.
    """
    mu = mu0 * (1.0 + a * z)
    if a > 0:
        if negatives is NegativeDraws.CLAMP:
            mu = np.maximum(mu, 0.0)
        else:
            bad = mu < 0
            while bad.any():
                mu[bad] = mu0 * (1.0 + a * rng.standard_normal(int(bad.sum())))
                bad = mu < 0
    return mu


def _round_estimate(
    source: Source,
    mu: np.ndarray,
    u: np.ndarray,
    detector: Detector,
    channel: Channel,
    ref0: float,
    nu: int,
) -> float:
    """One nu-repetition experiment under fluctuating pump `mu`."""
    s = channel.survival
    if detector is Detector.NUMBER_RESOLVING:
        total = _sample_counts_by_rows(_count_rows(source, s, mu), u).sum()
    else:
        if isinstance(source, Coherent):
            p_click = -np.expm1(-s * mu)
        else:
            p_click = mux_click_probability(source.params, mu, s)
        total = (u < p_click).sum()
    return float(total) / (nu * ref0)


def fluctuation_study(
    cfg: FluctuationConfig,
    source: Source,
    detector: Detector,
    channel: Channel,
    seed: int,
) -> list[McSummary]:
    """MSE versus pump-fluctuation size for one source/detector combination.

    The nominal pump is the one `source` carries (the coherent mean or the
    multiplexed pair mean).  For each fluctuation fraction `a`, runs
    cfg.rounds rounds; each round redraws the pump (once per round by
    default, per repetition if configured), samples the detection outcomes,
    forms the transmission estimate with the fluctuation-free reference, and
    records the squared error against the true transmission.
    """
    mu0 = _pump(source)
    # The spec rejects a vacuum source, whose zero reference would divide by 0.
    ref0 = make_estimator_spec(source, detector, channel.detector_eff, cfg.nu).reference_mean
    t = channel.transmission

    n_noise = cfg.nu if cfg.redraw is PumpRedraw.PER_REPETITION else 1
    sq_err = np.empty((len(cfg.a_grid), cfg.rounds))
    for r in range(cfg.rounds):
        for ai, a in enumerate(cfg.a_grid):
            # Same (seed, round) stream for every a: common random numbers.
            rng = np.random.default_rng([seed, r])
            z = rng.standard_normal(n_noise)
            u = rng.random(cfg.nu)
            mu = _pumps_from_noise(rng, mu0, a, z, cfg.negatives)
            estimate = _round_estimate(source, mu, u, detector, channel, ref0, cfg.nu)
            sq_err[ai, r] = (estimate - t) ** 2

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
                n_rounds=cfg.rounds,
                seed=seed,
            )
        )
    return summaries
