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
repetitions' inverse-CDF draws from that row is counted against the round's
sorted uniforms (`_round_totals`).  Redrawn per repetition, the counts are
independent and follow the pump average of the row, which is built once per
run; a round reads the same stream and counts its draws from that row the
same way, and their sum has the law of one draw from the row's nu-fold
power.  One engine (`_study_totals`) runs both modes.  The rounds go in
blocks under a fixed memory budget (`_BLOCK_FLOATS`); a block's streams are
drawn once for every (source, detector) pair of the study, and per round a
pair's count rows at all the block's pumps come from one `detected_rows`
call.  Both modes keep one uniform per draw, not a histogram, so that every
fluctuation fraction shares them (common random numbers, below).
Negative draws clamp to zero by default or are resampled; both modes are the
command line's strings (`REDRAWS`, `NEGATIVES`).  The pump averages are
quadratures over `pump_nodes`, built once per fraction and study, and the
same nodes give `fluctuation_mse`, the exact MSE the study samples, in every
mode and for both detectors.

Reproducibility: every round derives its generator stream from (seed, round
index), so results are independent of execution schedule, of the block size
and of which pairs share a study.  The stream is drawn once per round and
shared by every fluctuation fraction and every pair (common random
numbers), which makes the MSE-versus-fluctuation curves smooth rather than
noisy.
"""

from __future__ import annotations

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

# Float64s that one block of rounds holds in its uniforms (rounds x nu), and
# one study in its count rows (rounds x a x row length).
# Unblocked, a 300-round study at nu = 1e5 allocated 229 MiB at its peak
# (tracemalloc), against 2.3 MiB at 2**17 (1 MiB), where a block at
# nu = 1e5 holds one round and the default 50 rounds of 200 uniforms share
# one block.
_BLOCK_FLOATS = 2**17

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
    (std(ddof=1) / sqrt(rounds)), the 68% band of the rounds and the exact
    MSE they sample (`fluctuation_mse`)."""

    fluctuation: float
    mean_mse: float
    mse_se: float
    ci_low: float
    ci_high: float
    mse_exact: float


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
    return _pump_grid((a,), negatives)[0]


def _pump_grid(a_grid, negatives: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """`pump_nodes` at each fluctuation fraction of `a_grid`.  The
    Gauss-Legendre rule (~1 ms) is built once, and only if some fraction is
    not zero; no cache keeps it past the call."""
    _check_mode("negatives", negatives, NEGATIVES)
    rule = _legendre_nodes() if any(a != 0.0 for a in a_grid) else None
    nodes = []
    for a in a_grid:
        if a == 0.0:
            nodes.append((np.ones(1), np.ones(1)))
            continue
        s, w = rule
        z_min, z_max = max(-1.0 / a, -10.0), 10.0
        half = 0.5 * (z_max - z_min)
        z = z_min + half * (s + 1.0)
        w = half * w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        p_negative = 0.5 * math.erfc(1.0 / (a * math.sqrt(2.0)))
        if negatives == "clamp":
            nodes.append((np.append(1.0 + a * z, 0.0), np.append(w, p_negative)))
        else:
            nodes.append((1.0 + a * z, w / (1.0 - p_negative)))
    return nodes


def fluctuation_mse(
    cfg: FluctuationConfig, source: Source, detector, channel: Channel, nodes=None
) -> list[float]:
    """Exact MSE of `fluctuation_study`'s estimate at each fluctuation
    fraction of `cfg`, by quadrature over `pump_nodes`.

    With k(mu) the mean and v(mu) the variance of one repetition's count at
    pump mu, and ref the fluctuation-free reference: per round, the nu counts
    share one pump, so the MSE is E_mu[v / (nu ref^2) + (k / ref - t)^2].  Per
    repetition they are independent with the pump-averaged mean E_mu k and
    variance E_mu v + Var_mu k, which enter the same expression once.  Every
    term is a square or a variance, so nothing cancels.  `nodes`, if given,
    holds `pump_nodes` for each fluctuation fraction of `cfg`; the moments
    at all their pumps come from one `detected_moments` call.
    """
    ref = reference_mean(source, detector, channel.detector_eff)
    mu0 = source_pump(source)
    t, scale = channel.transmission, cfg.nu * ref * ref
    if nodes is None:
        nodes = _pump_grid(cfg.a_grid, cfg.negatives)
    pumps = mu0 * np.concatenate([x for x, _ in nodes])
    k = detected_moments(source, detector, channel.survival, pumps)
    ends = np.cumsum([w.size for _, w in nodes])[:-1]
    mses = []
    for (_, w), mean, variance in zip(nodes, np.split(k.mean, ends), np.split(k.variance, ends)):
        if cfg.redraw == "per-round":
            mse = w @ (variance / scale + (mean / ref - t) ** 2)
        else:
            pumped = w @ mean
            mse = w @ (variance + (mean - pumped) ** 2) / scale + (pumped / ref - t) ** 2
        mses.append(float(mse))
    return mses


def _round_totals(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum of the inverse-CDF draws of each round's uniforms from each of its
    rows, without forming the draws.

    `rows` has the rounds on its first axis, or one entry there that every
    round shares, and the counts (offset 0) on its last; `u` holds one
    sorted row of uniforms per round.  A draw, capped at the last count,
    exceeds count k exactly when its uniform is >= cdf[k], so a total counts
    the uniforms >= cdf[k] below the last k.  Each round is searched in its
    own uniforms, so every comparison is exact.
    """
    cdf = np.cumsum(rows[..., :-1], axis=-1)
    cdf = np.broadcast_to(cdf, (len(u),) + cdf.shape[1:])
    below = np.array([u_r.searchsorted(cdf_r, side="left") for u_r, cdf_r in zip(u, cdf)])
    return u.shape[-1] * cdf.shape[-1] - below.reshape(cdf.shape).sum(axis=-1)


def _relative_pumps(
    rng: np.random.Generator, a: np.ndarray, z: float, negatives: str
) -> np.ndarray:
    """Relative pump strengths 1 + a*z, one per fluctuation fraction in `a`,
    truncated at zero.

    `z` is the round's one normal.  Resampling draws its replacement normals
    after the round's uniforms, and every fraction restarts from the
    generator state there, so each `a` sees the replacement normals it would
    see alone.
    """
    x = 1.0 + a * z
    if negatives == "clamp":
        return np.maximum(x, 0.0)
    negative = np.flatnonzero(x < 0)
    if negative.size:
        state = rng.bit_generator.state
        for i in negative:
            rng.bit_generator.state = state
            while x[i] < 0:
                x[i] = 1.0 + a[i] * rng.standard_normal()
    return x


def _round_streams(
    cfg: FluctuationConfig, seed: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Relative pumps (rounds x a) and sorted uniforms (rounds x nu) of
    rounds start..stop-1, each from its (seed, round) stream: one normal,
    then nu uniforms, then any replacement normals."""
    a_grid = np.asarray(cfg.a_grid, dtype=np.float64)
    x = np.empty((stop - start, a_grid.size))
    u = np.empty((stop - start, cfg.nu))
    for i, r in enumerate(range(start, stop)):
        rng = np.random.default_rng([seed, r])
        z = rng.standard_normal()
        rng.random(out=u[i])
        x[i] = _relative_pumps(rng, a_grid, z, cfg.negatives)
    u.sort(axis=-1)
    return x, u


def _averaged_rows(study, survival: float, nodes: list) -> np.ndarray:
    """Pump-averaged count row of each fluctuation fraction, shape (a, counts),
    zero-padded to one length; `study` is a (source, detector, nominal pump)
    triple and `nodes` holds `pump_nodes` for each fraction."""
    source, detector, mu0 = study
    rows = [w @ detected_rows(source, detector, survival, _ROW_TAIL, mu0 * x) for x, w in nodes]
    length = max(row.size for row in rows)
    return np.array([np.pad(row, (0, length - row.size)) for row in rows])


def _study_totals(
    cfg: FluctuationConfig, studies: list, survival: float, seed: int, nodes: list
) -> np.ndarray:
    """Round totals, shape (study, a, rounds); `studies` holds (source,
    detector, nominal pump) triples and `nodes` `pump_nodes` for each
    fluctuation fraction.

    A round's total counts the draws of its nu sorted uniforms from its count
    rows: per round, the rows at the round's pumps; per repetition, each
    fraction's pump-averaged row (`_averaged_rows`), which every round
    shares.  The rounds go in blocks of at most `_BLOCK_FLOATS` uniforms,
    whose streams are drawn once for every study.  Per round, a study's rows
    at the block's (rounds x a) pumps come from one `detected_rows` call, and
    their length is that of the row at the block's largest pump.  In both
    modes the rounds are counted in sub-blocks when their rows would exceed
    `_BLOCK_FLOATS`.
    """
    n_a = len(cfg.a_grid)
    totals = np.empty((len(studies), n_a, cfg.rounds))
    if cfg.redraw == "per-round":
        averaged = [None] * len(studies)
    else:
        averaged = [_averaged_rows(study, survival, nodes) for study in studies]
    step = max(1, _BLOCK_FLOATS // cfg.nu)
    for start in range(0, cfg.rounds, step):
        x, u = _round_streams(cfg, seed, start, min(start + step, cfg.rounds))
        for out, (source, detector, mu0), shared in zip(totals, studies, averaged):
            if shared is None:
                mu = mu0 * x
                length = detected_rows(source, detector, survival, _ROW_TAIL, mu.max()).shape[-1]
            else:
                length = shared.shape[-1]
            sub = max(1, _BLOCK_FLOATS // (n_a * length))
            for lo in range(0, len(x), sub):
                hi = min(lo + sub, len(x))
                if shared is None:
                    rows = detected_rows(source, detector, survival, _ROW_TAIL, mu[lo:hi])
                else:
                    rows = shared[None]
                out[:, start + lo : start + hi] = _round_totals(rows, u[lo:hi]).T
    return totals


def fluctuation_study(
    cfg: FluctuationConfig, pairs, channel: Channel, seed: int
) -> list[list[McSummary]]:
    """MSE versus pump-fluctuation size for each (source, detector) pair of
    `pairs`, one summary list per pair; `fluctuation_study(cfg, [(source,
    detector)], channel, seed)[0]` studies one pair.

    The nominal pump is the one the source carries (the coherent mean or the
    multiplexed pair mean).  Runs cfg.rounds rounds; each draws its round
    total of counts or clicks for every pair and fluctuation fraction `a`
    from one (seed, round) stream, forms the transmission estimate with the
    fluctuation-free reference, and records its squared error against the
    true transmission.  Each summary carries the exact MSE the rounds sample
    (`fluctuation_mse`).
    """
    pairs = list(pairs)
    refs = [reference_mean(source, detector, channel.detector_eff) for source, detector in pairs]
    studies = [(source, detector, source_pump(source)) for source, detector in pairs]
    nodes = _pump_grid(cfg.a_grid, cfg.negatives)
    totals = _study_totals(cfg, studies, channel.survival, seed, nodes)
    summaries = []
    for (source, detector), ref, study in zip(pairs, refs, totals):
        sq_err = (study / (cfg.nu * ref) - channel.transmission) ** 2
        lows, highs = np.percentile(sq_err, [16.0, 84.0], axis=1)
        exact = fluctuation_mse(cfg, source, detector, channel, nodes)
        summaries.append([
            McSummary(
                fluctuation=a,
                mean_mse=float(errors.mean()),
                mse_se=float(errors.std(ddof=1) / math.sqrt(cfg.rounds)),
                ci_low=float(lo),
                ci_high=float(hi),
                mse_exact=mse,
            )
            for a, errors, lo, hi, mse in zip(cfg.a_grid, sq_err, lows, highs, exact)
        ])
    return summaries
