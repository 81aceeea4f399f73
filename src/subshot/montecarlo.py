"""Seeded Monte Carlo engine and the exact pump-fluctuation MSE.

Two jobs: validate the exact estimator reports by sampling full experiments,
and study what pump-power fluctuations do to the measurement error.

Both take the distribution and moments of one repetition's count from
`detection.detected_rows` and `detection.detected_moments`, which build them
from the closed forms of `sources`; this module knows no source kind and no
detector, and hands the `detector` argument through unread.
`mc_estimate` takes `exact_report`'s arguments plus a trial count and a seed.
It reads only the total count over the nu repetitions, as the estimators do,
and only how many trials reach each total: one multinomial draw over the
nu-fold convolution power of the detected-count row (`_total_count_row`)
gives that histogram at a cost that does not grow with the trial count.

In the fluctuation study the pump strength becomes a Gaussian random variable
(sigma = a * mean around the source's own pump, truncated at zero) and the
estimator keeps its fluctuation-free reference normalization.  Each round
yields one transmission estimate and one squared error; rounds are summarized
by their mean, its standard error and the 16th/84th percentiles.  By default
the pump is redrawn once per round (slow drift relative to a round): the
source is re-evaluated at the round's pump, and the round total of the
repetitions' inverse-CDF draws from that row is counted against the sorted
uniforms (`_round_totals`).  Redrawn per repetition, the counts are
independent and follow the pump average of the row, so a round is one
inverse-CDF lookup in its nu-fold power, the row `mc_estimate` samples.
Both modes keep one uniform per draw, not a histogram, so that every
fluctuation fraction shares them (common random numbers, below).  Negative
draws clamp to zero by default or are resampled; both modes are the command
line's strings (`REDRAWS`, `NEGATIVES`).  The pump averages are quadratures over
`pump_nodes`, and the same nodes give `fluctuation_mse`, the exact MSE the
study samples, in every mode and for both detectors.

Reproducibility: every round derives its generator stream from (seed, round
index), so results are independent of execution schedule.  The stream is
drawn once per round and shared by every fluctuation fraction (common random
numbers), which makes the MSE-versus-fluctuation curves smooth rather than
noisy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from subshot.detection import Channel, detected_moments, detected_rows
from subshot.estimators import reference_mean
from subshot.sources import ConfigError, Source, check_count, source_pump

# Count rows discard less than this mass per trimmed tail: far below the
# spacing of the uniforms the fluctuation rounds sample them with, and a bias
# far below the standard error of `mc_estimate` at any trial count.
_ROW_TAIL = 1e-18

# The largest trial count numpy's multinomial takes (a 64-bit integer).
MAX_TRIALS = 2**63 - 1

# Gauss-Legendre nodes of the pump quadrature.
_PUMP_NODES = 48

# How often the fluctuating pump is redrawn, and what becomes of Gaussian
# pump draws below zero; the first of each is the default.
REDRAWS = ("per-round", "per-repetition")
NEGATIVES = ("clamp", "resample")


def _check_mode(field: str, value: str, allowed: tuple[str, ...]) -> None:
    """ConfigError naming `field` unless `value` is one of `allowed`."""
    if value not in allowed:
        raise ConfigError(field, f"must be one of {', '.join(allowed)}, got {value!r}")


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


def _invert_cdf(offset: int, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count drawn from P(K = offset + i) = row[i] for each uniform in `u`."""
    cdf = np.cumsum(row)
    return offset + np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


@dataclass(frozen=True)
class McEstimate:
    """Empirical estimator moments with standard errors."""

    expectation: float
    expectation_se: float
    mse: float
    mse_se: float


def _sample_moments(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation (ddof 1, or 0 for a single draw) of the
    sample holding `values[i]` `counts[i]` times."""
    n = int(counts.sum())
    mean = counts @ values / n
    variance = counts @ (values - mean) ** 2 / max(n - 1, 1)
    return float(mean), math.sqrt(variance)


def mc_estimate(
    source: Source, detector, channel: Channel, nu: int, trials: int, seed: int
) -> McEstimate:
    """Sample `trials` independent nu-repetition experiments of the estimator
    `exact_report` evaluates at the same arguments.

    Each experiment's total count over the nu repetitions, divided by nu
    times `reference_mean`, is its estimate of the true transmission.  One
    multinomial draw gives how many experiments reach each possible total,
    which is the same joint law as drawing the totals one by one; numpy walks
    the categories with conditional binomials, so the cost grows with the
    number of totals, not with `trials`.  Deterministic per seed.
    """
    nu = check_count("nu", nu, 1)
    trials = check_count("trials", trials, 1, MAX_TRIALS)
    ref = reference_mean(source, detector, channel.detector_eff)
    rng = np.random.default_rng(seed)
    row = detected_rows(source, detector, channel.survival, _ROW_TAIL)
    offset, probs = _total_count_row(row, nu)
    counts = rng.multinomial(trials, probs)

    estimates = (offset + np.arange(probs.size)) / (nu * ref)
    expectation, expectation_sd = _sample_moments(estimates, counts)
    mse, mse_sd = _sample_moments((estimates - channel.transmission) ** 2, counts)
    root = math.sqrt(trials)
    return McEstimate(expectation, expectation_sd / root, mse, mse_sd / root)


@dataclass(frozen=True)
class FluctuationConfig:
    """Configuration of the pump-fluctuation study.

    `a_grid` holds the fluctuation fractions (sigma = a * mean) in [0, 0.6];
    rounds is the number of MSE-evaluation rounds per grid point and nu the
    repetitions per round.  A field out of range raises `ConfigError`.
    """

    a_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    rounds: int = 50
    nu: int = 200
    redraw: str = REDRAWS[0]
    negatives: str = NEGATIVES[0]

    def __post_init__(self):
        if not self.a_grid:
            raise ConfigError("a_grid", "must be non-empty")
        for a in self.a_grid:
            if not 0.0 <= a <= 0.6:
                raise ConfigError("a_grid", f"fluctuation {a} outside [0, 0.6]")
        object.__setattr__(self, "rounds", check_count("rounds", self.rounds, 2))
        object.__setattr__(self, "nu", check_count("nu", self.nu, 1))
        _check_mode("redraw", self.redraw, REDRAWS)
        _check_mode("negatives", self.negatives, NEGATIVES)


@dataclass(frozen=True)
class McSummary:
    """Per-grid-point summary: mean MSE, its standard error across rounds
    (std(ddof=1) / sqrt(rounds)) and the 68% band of the rounds."""

    fluctuation: float
    mean_mse: float
    mse_se: float
    ci_low: float
    ci_high: float


@functools.cache
def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated with P_{n-1} by the three-term
    recurrence, from the usual cosine guesses; it reaches rounding in four
    steps.  The weights are 2 / ((1 - x^2) P_n'(x)^2).  The eigenvalues of
    the Jacobi matrix give the same nodes, but the first LAPACK call raised
    the monte-carlo benchmark's peak memory by ~0.6 MB.
    """
    n = _PUMP_NODES
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def pump_nodes(a: float, negatives: str) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes x and weights w of the relative pump x = 1 + a*z,
    z standard normal, truncated at zero as `negatives` says.

    The positive part, z in (-1/a, 10), is integrated by Gauss-Legendre, and
    normal tails beyond |z| = 10 (< 1e-23 each) are dropped.  The interval
    stops at z = -10 too: at a = 0.01 the 48 nodes on (-100, 10) would miss
    the mass by 0.5%.  Clamped draws add a node at x = 0 holding P(x < 0);
    resampled ones renormalize the positive part.  At a = 0 the pump is
    fixed: the single node x = 1 with weight 1.
    """
    _check_mode("negatives", negatives, NEGATIVES)
    if a == 0.0:
        return np.ones(1), np.ones(1)
    s, w = _legendre_nodes()
    z_min, z_max = max(-1.0 / a, -10.0), 10.0
    half = 0.5 * (z_max - z_min)
    z = z_min + half * (s + 1.0)
    w = half * w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    p_negative = 0.5 * math.erfc(1.0 / (a * math.sqrt(2.0)))
    if negatives == "clamp":
        return np.append(1.0 + a * z, 0.0), np.append(w, p_negative)
    return 1.0 + a * z, w / (1.0 - p_negative)


def fluctuation_mse(
    cfg: FluctuationConfig, source: Source, detector, channel: Channel
) -> list[float]:
    """Exact MSE of `fluctuation_study`'s estimate at each fluctuation
    fraction of `cfg`, by quadrature over `pump_nodes`.

    With k(mu) the mean and v(mu) the variance of one repetition's count at
    pump mu, and ref the fluctuation-free reference: per round, the nu counts
    share one pump, so the MSE is E_mu[v / (nu ref^2) + (k / ref - t)^2].  Per
    repetition they are independent with the pump-averaged mean E_mu k and
    variance E_mu v + Var_mu k, which enter the same expression once.  Every
    term is a square or a variance, so nothing cancels.
    """
    ref = reference_mean(source, detector, channel.detector_eff)
    mu0 = source_pump(source)
    t, scale = channel.transmission, cfg.nu * ref * ref
    mses = []
    for a in cfg.a_grid:
        x, w = pump_nodes(a, cfg.negatives)
        k = detected_moments(source, detector, channel.survival, mu0 * x)
        if cfg.redraw == "per-round":
            mse = w @ (k.variance / scale + (k.mean / ref - t) ** 2)
        else:
            pumped = w @ k.mean
            mse = w @ (k.variance + (k.mean - pumped) ** 2) / scale + (pumped / ref - t) ** 2
        mses.append(float(mse))
    return mses


def _round_totals(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum over the uniforms `u` of the counts `_invert_cdf` draws from each
    row of `rows` (count axis last, offset 0), without forming the draws: a
    draw, capped at the last count, exceeds count k exactly when its uniform
    is >= cdf[k], so the sum counts the uniforms >= cdf[k] below the last k.
    """
    cdf = np.cumsum(rows[..., :-1], axis=-1)
    return (u.size - np.searchsorted(np.sort(u), cdf, side="left")).sum(axis=-1)


def _pumps_from_noise(
    rng: np.random.Generator, mu0: float, a: np.ndarray, z: float, negatives: str
) -> np.ndarray:
    """Pump strengths mu0 * (1 + a*z), one per fluctuation fraction in `a`,
    truncated at zero.

    `z` is the round's one normal.  Resampling draws its replacement normals
    after the shared noise, and every fraction restarts from the generator
    state there, so each `a` sees the replacement normals it would see alone.
    """
    mu = mu0 * (1.0 + a * z)
    if negatives == "clamp":
        return np.maximum(mu, 0.0)
    state = rng.bit_generator.state
    for i in np.flatnonzero(mu < 0):
        rng.bit_generator.state = state
        while mu[i] < 0:
            mu[i] = mu0 * (1.0 + a[i] * rng.standard_normal())
    return mu


def _per_round_totals(
    cfg: FluctuationConfig, source: Source, detector, survival: float, mu0: float, seed: int
) -> np.ndarray:
    """Round totals, shape (a, rounds), with the pump drawn once per round.

    Each round draws one normal and nu uniforms, evaluates the count row at
    every fluctuation fraction's pump and sums the nu repetitions' draws
    from it.
    """
    a_grid = np.asarray(cfg.a_grid, dtype=np.float64)
    totals = np.empty((a_grid.size, cfg.rounds))
    for r in range(cfg.rounds):
        # Same (seed, round) stream for every a: common random numbers.
        rng = np.random.default_rng([seed, r])
        z = rng.standard_normal()
        u = rng.random(cfg.nu)
        mu = _pumps_from_noise(rng, mu0, a_grid, z, cfg.negatives)
        totals[:, r] = _round_totals(detected_rows(source, detector, survival, _ROW_TAIL, mu), u)
    return totals


@functools.lru_cache(maxsize=16)
def _round_uniforms(seed: int, rounds: int) -> np.ndarray:
    """The first uniform of each round's (seed, round) stream; the studies of
    one run share them, and building a generator costs ~30 us."""
    u = np.array([np.random.default_rng([seed, r]).random() for r in range(rounds)])
    u.flags.writeable = False
    return u


def _per_repetition_totals(
    cfg: FluctuationConfig, source: Source, detector, survival: float, mu0: float, seed: int
) -> np.ndarray:
    """Round totals, shape (a, rounds), with the pump drawn per repetition.

    Each repetition's count follows the pump-averaged row, so a round's total
    is one inverse-CDF lookup in its nu-fold power, with the round's one
    uniform shared by every a.
    """
    u = _round_uniforms(seed, cfg.rounds)
    totals = np.empty((len(cfg.a_grid), cfg.rounds))
    for i, a in enumerate(cfg.a_grid):
        x, w = pump_nodes(a, cfg.negatives)
        row = w @ detected_rows(source, detector, survival, _ROW_TAIL, mu0 * x)
        totals[i] = _invert_cdf(*_total_count_row(row, cfg.nu), u)
    return totals


def fluctuation_study(
    cfg: FluctuationConfig, source: Source, detector, channel: Channel, seed: int
) -> list[McSummary]:
    """MSE versus pump-fluctuation size for one source/detector combination.

    The nominal pump is the one `source` carries (the coherent mean or the
    multiplexed pair mean).  Runs cfg.rounds rounds; each draws its round
    total of counts or clicks for every fluctuation fraction `a` from one
    (seed, round) stream, forms the transmission estimate with the
    fluctuation-free reference, and records its squared error against the
    true transmission.
    """
    ref0 = reference_mean(source, detector, channel.detector_eff)
    mu0 = source_pump(source)
    if cfg.redraw == "per-round":
        totals = _per_round_totals(cfg, source, detector, channel.survival, mu0, seed)
    else:
        totals = _per_repetition_totals(cfg, source, detector, channel.survival, mu0, seed)
    sq_err = (totals / (cfg.nu * ref0) - channel.transmission) ** 2

    lows, highs = np.percentile(sq_err, [16.0, 84.0], axis=1)
    return [
        McSummary(
            fluctuation=a,
            mean_mse=float(errors.mean()),
            mse_se=float(errors.std(ddof=1) / math.sqrt(cfg.rounds)),
            ci_low=float(lo),
            ci_high=float(hi),
        )
        for a, errors, lo, hi in zip(cfg.a_grid, sq_err, lows, highs)
    ]
