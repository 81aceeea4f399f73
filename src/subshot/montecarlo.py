"""Seeded Monte Carlo engine and the exact pump-fluctuation MSE.

Two jobs: validate the exact estimator reports by sampling full experiments,
and study what pump-power fluctuations do to the measurement error.

Both take what they need of one repetition's count from `detection`
(`detected_row_plan`, `detected_moments`, `detected_log_pgf`), which builds
it from the closed forms of `sources`; this module knows no source kind and
no detector, and hands the `detector` argument through unread.
`mc_estimate` takes `exact_report`'s arguments plus a trial count and a seed.
It reads only the total count over the nu repetitions, as the estimators do,
and only how many trials reach each total: one multinomial draw over the
law of the total gives that histogram at a cost that does not grow with the
trial count.  That law comes from the closed-form generating function of
one count raised to the nu-th power, inverted by one FFT on a window that
holds all but `sources.ROW_TAIL` of each tail (`_total_count_pmf`), at a
cost that grows like the total's standard deviation, not like nu: its
Chernoff edges, from `sources.count_window`, the rule that sizes every
count row too.

In the fluctuation study the pump strength becomes a Gaussian random variable
(sigma = a * mean around the source's own pump, truncated at zero) and the
estimator keeps its fluctuation-free reference normalization.  Each round
yields one transmission estimate and one squared error; rounds are summarized
by their mean, its standard error and the 16th/84th percentiles.  By default
the pump is redrawn once per round (slow drift relative to a round): the
source is re-evaluated at the round's pump, and the round total of the
repetitions' inverse-CDF draws from that row is counted against the round's
sorted uniforms (`_round_totals`).  Redrawn per repetition, the counts are
independent and follow the pump average of the row, whose CDF is formed
once per run; a round counts its draws from it the same way, and their sum
has the law of one draw from the row's nu-fold power.
One engine (`_study_totals`) runs both modes on the run's (source,
detector) pairs.  The rounds go in blocks under a fixed memory budget
(`_BLOCK_FLOATS`), whose streams are drawn once for every pair.  In a
block, consecutive pairs whose rows for all its rounds fit in the budget
form a group, whose CDFs one search per round counts; any other pair is a
group of its own, counted as many rounds at a time as its rows fit: per
round, the rows at the chunk's pumps, built in one call (split by fraction
where one round's pass it); per repetition, its shared CDFs, from the rows
at the pump nodes, built in chunks of nodes under the budget too.  Each
row is built at one length per block (per repetition, per study), which
the pair's one row plan per study gives without building a row.
Both modes keep one uniform per draw, not a histogram, so that every
fluctuation fraction shares them (common random numbers, below).
Negative draws clamp to zero by default or are resampled; both modes are the
command line's strings (`REDRAWS`, `NEGATIVES`).  The pump averages are
quadratures over `pump_nodes`, every fraction's nodes in one layout mapped
once per study from a committed 48-node Gauss-Legendre table, each fraction
a slice of it; the same nodes give `fluctuation_mse`, the exact MSE the
study samples, in every mode and for both detectors.  The squared errors of
all pairs are summarized in one pass.

Reproducibility: round r draws from the stream `PCG64(seed).jumped(r)`,
which depends on the seed and the round index only, so results are
independent of execution schedule, of the block size and of which pairs
share a study.  The stream is drawn once per round and shared by every
fluctuation fraction and every pair (common random numbers), which makes
the MSE-versus-fluctuation curves smooth rather than noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from subshot.detection import Channel, detected_log_pgf, detected_moments, detected_row_plan
from subshot.estimators import reference_mean
from subshot.sources import CHERNOFF_POINTS, ConfigError, Source, check_count, count_window, source_pump

# The largest trial count numpy's multinomial takes (a 64-bit integer).
MAX_TRIALS = 2**63 - 1

# Float64s that one block of rounds holds in its uniforms (rounds x nu), and
# one study in its count rows (rounds x a x row length).
# Unblocked, a 300-round study at nu = 1e5 allocated 229 MiB at its peak
# (tracemalloc), against 2.3 MiB at 2**17 (1 MiB), where a block at
# nu = 1e5 holds one round and the default 50 rounds of 200 uniforms share
# one block.
_BLOCK_FLOATS = 2**17

# The 48-node Gauss-Legendre rule on [-1, 1] of the pump quadrature: nodes
# (ascending) and weights.  Each value is the repr of what Newton's method on
# P_48 gives (the oracle `legendre_rule` in tests/_oracles.py), so the table
# round-trips exactly.
_LEGENDRE_NODES = np.array([
    -0.9987710072524261, -0.9935301722663508, -0.9841245837228269, -0.9705915925462473,
    -0.9529877031604308, -0.9313866907065543, -0.9058791367155696, -0.8765720202742479,
    -0.8435882616243935, -0.8070662040294426, -0.7671590325157404, -0.7240341309238146,
    -0.6778723796326639, -0.6288673967765136, -0.5772247260839727, -0.523160974722233,
    -0.4669029047509584, -0.4086864819907167, -0.34875588629216075, -0.28736248735545555,
    -0.22476379039468905, -0.1612223560688917, -0.0970046992094627, -0.03238017096286937,
    0.03238017096286937, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
    0.28736248735545555, 0.34875588629216075, 0.4086864819907167, 0.4669029047509584,
    0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
    0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
    0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
])
_LEGENDRE_WEIGHTS = np.array([
    0.0031533460523054026, 0.007327553901276208, 0.01147723457923459, 0.015579315722943856,
    0.01961616045735557, 0.023570760839324342, 0.027426509708356882, 0.0311672278327981,
    0.03477722256477045, 0.03824135106583072, 0.041545082943464776, 0.044674560856694294,
    0.04761665849249055, 0.05035903555385447, 0.05289018948519366, 0.05519950369998417,
    0.05727729210040315, 0.059114839698395566, 0.06070443916589386, 0.06203942315989268,
    0.06311419228625405, 0.06392423858464817, 0.0644661644359501, 0.06473769681268386,
    0.06473769681268386, 0.0644661644359501, 0.06392423858464817, 0.06311419228625405,
    0.06203942315989268, 0.06070443916589386, 0.059114839698395566, 0.05727729210040315,
    0.05519950369998417, 0.05289018948519366, 0.05035903555385447, 0.04761665849249055,
    0.044674560856694294, 0.041545082943464776, 0.03824135106583072, 0.03477722256477045,
    0.0311672278327981, 0.027426509708356882, 0.023570760839324342, 0.01961616045735557,
    0.015579315722943856, 0.01147723457923459, 0.007327553901276208, 0.0031533460523054026,
])

# The pump quadrature integrates the standard normal z of the relative pump
# 1 + a*z over |z| <= this (`pump_nodes`).
PUMP_Z_MAX = 10.0

# The step between the streams of consecutive fluctuation rounds, in draws:
# numpy's `PCG64.jumped` step, (phi - 1) * 2**128 rounded up to odd, so that
# round r's stream is `PCG64(seed).jumped(r)`, spaced as numpy spaces
# streams that must not overlap.
_ROUND_STEP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# `_total_count_pmf` zeroes the entries up to the larger of these multiples
# of its most negative entry and of its largest.  Over 1500 random totals
# (the three sources, both detectors, nu < 1e5), entries where the direct
# convolution power is below 1e-25 of its peak passed this floor in 1 total
# (11 at 1 * 2**-52, none at 16 * 2**-52).  A higher floor zeroes real
# mass: under a weak herald (7e-11, nu = 200) 16 * 2**-52 loses 2.5e-12 of
# it, 2e-9 of the mean, and this one 5e-13.
_NOISE_FLOOR = 4.0
_PEAK_FLOOR = 4 * 2.0**-52

# How often the fluctuating pump is redrawn, and what becomes of Gaussian
# pump draws below zero; the first of each is the default.
REDRAWS = ("per-round", "per-repetition")
NEGATIVES = ("clamp", "resample")


def _check_mode(field: str, value: str, allowed: tuple[str, ...]) -> None:
    """ConfigError naming `field` unless `value` is one of `allowed`."""
    if value not in allowed:
        raise ConfigError(field, f"must be one of {', '.join(allowed)}, got {value!r}")


def _total_count_pmf(source: Source, detector, survival: float, nu: int) -> tuple[int, np.ndarray]:
    """Distribution of the sum K of `nu` independent counts of one
    repetition of `source` and `detector` after per-photon survival
    `survival`: `(offset, probs)` with P(K = offset + i) = probs[i].

    K has the generating function G^nu, G that of one count
    (`detected_log_pgf`).  Its values at e^{-i theta} on the L-th roots of
    unity, times e^{i theta k0}, are the discrete Fourier transform of the
    law of K - k0 wrapped modulo L, so one inverse real FFT of them on
    theta in [0, pi] gives that law (Abate and Whitt, "Numerical inversion
    of probability generating functions", Oper. Res. Lett. 12, 1992).  The
    window [k0, k0 + L) spans `sources.count_window`, the Chernoff edges of
    K at `ROW_TAIL`, so what wraps into it is below `ROW_TAIL` too.  The
    rounding of the inversion spreads over every entry with either sign:
    entries up to `_NOISE_FLOOR` times the most negative one, or up to
    `_PEAK_FLOOR` times the largest, are zeroed, and the rest is trimmed of
    zero ends and normalized.
    """
    k0, top = count_window(detected_log_pgf(source, detector, survival, CHERNOFF_POINTS), nu)
    size = 1 << (top - k0).bit_length()
    theta = np.arange(size // 2 + 1) * (2.0 * math.pi / size)
    # numpy's complex expm1 forms cos - 1 as -2 sin^2(theta / 2).
    log_g = detected_log_pgf(source, detector, survival, np.expm1(-1j * theta))
    probs = np.fft.irfft(np.exp(nu * log_g + 1j * (k0 * theta)), size)
    floor = max(-_NOISE_FLOOR * probs.min(), _PEAK_FLOOR * probs.max())
    kept = np.flatnonzero(probs > floor)
    probs = probs[kept[0] : kept[-1] + 1]
    probs[probs <= floor] = 0.0
    return k0 + int(kept[0]), probs / probs.sum()


class McEstimate(NamedTuple):
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
    times `reference_mean`, is its estimate of the true transmission.  The
    totals follow `_total_count_pmf`; one multinomial draw gives how many
    experiments reach each possible total, which is the same joint law as
    drawing the totals one by one; numpy walks the categories with
    conditional binomials, so the cost grows with the number of totals, not
    with `trials`.  Deterministic per seed.
    """
    nu = check_count("nu", nu, 1)
    trials = check_count("trials", trials, 1, MAX_TRIALS)
    ref = reference_mean(source, detector, channel.detector_eff)
    rng = np.random.default_rng(seed)
    offset, probs = _total_count_pmf(source, detector, channel.survival, nu)
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


class McSummary(NamedTuple):
    """Per-grid-point summary: mean MSE, its standard error across rounds
    (std(ddof=1) / sqrt(rounds)), the 68% band of the rounds and the exact
    MSE they sample (`fluctuation_mse`)."""

    fluctuation: float
    mean_mse: float
    mse_se: float
    ci_low: float
    ci_high: float
    mse_exact: float


def pump_nodes(a_grid, negatives: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Quadrature nodes x and weights w of the relative pump x = 1 + a*z,
    z standard normal, truncated at zero as `negatives` says, for every
    fluctuation fraction a of `a_grid`: `(x, w, ends)`, the fractions' nodes
    and weights one after another, fraction i's at `ends[i]:ends[i + 1]`.

    The positive part, z in (-1/a, 10), is integrated by the committed
    Gauss-Legendre rule (`_LEGENDRE_NODES`), and normal tails beyond
    |z| = 10 (< 1e-23 each) are dropped.  The interval stops at z = -10 too:
    at a = 0.01 the 48 nodes on (-100, 10) would miss the mass by 0.5%.
    Clamped draws add a node at x = 0 holding P(x < 0); resampled ones
    renormalize the positive part.  At a = 0 the pump is fixed: the single
    node x = 1 with weight 1.
    """
    _check_mode("negatives", negatives, NEGATIVES)
    nodes = []
    for a in a_grid:
        if a == 0.0:
            nodes.append((np.ones(1), np.ones(1)))
            continue
        z_min, z_max = max(-1.0 / a, -PUMP_Z_MAX), PUMP_Z_MAX
        half = 0.5 * (z_max - z_min)
        z = z_min + half * (_LEGENDRE_NODES + 1.0)
        w = half * _LEGENDRE_WEIGHTS * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        p_negative = 0.5 * math.erfc(1.0 / (a * math.sqrt(2.0)))
        if negatives == "clamp":
            nodes.append((np.append(1.0 + a * z, 0.0), np.append(w, p_negative)))
        else:
            nodes.append((1.0 + a * z, w / (1.0 - p_negative)))
    ends = np.cumsum([0] + [x.size for x, _ in nodes]).tolist()
    return np.concatenate([x for x, _ in nodes]), np.concatenate([w for _, w in nodes]), ends


def fluctuation_mse(
    cfg: FluctuationConfig, source: Source, detector, channel: Channel, nodes=None, ref=None
) -> list[float]:
    """Exact MSE of `fluctuation_study`'s estimate at each fluctuation
    fraction of `cfg`, by quadrature over `pump_nodes`.

    With k(mu) the mean and v(mu) the variance of one repetition's count at
    pump mu, and ref the fluctuation-free reference: per round, the nu counts
    share one pump, so the MSE is E_mu[v / (nu ref^2) + (k / ref - t)^2].  Per
    repetition they are independent with the pump-averaged mean E_mu k and
    variance E_mu v + Var_mu k, which enter the same expression once.  Every
    term is a square or a variance, so nothing cancels.  `nodes`, if given,
    holds `pump_nodes(cfg.a_grid, cfg.negatives)`, and `ref` the reference;
    one `detected_moments` call gives the moments at all the nodes' pumps,
    and each fraction its slice.
    """
    ref = reference_mean(source, detector, channel.detector_eff) if ref is None else ref
    t, scale = channel.transmission, cfg.nu * ref * ref
    x, w, ends = pump_nodes(cfg.a_grid, cfg.negatives) if nodes is None else nodes
    k = detected_moments(source, detector, channel.survival, source_pump(source) * x)
    spans = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    if cfg.redraw == "per-round":
        terms = k.variance / scale + (k.mean / ref - t) ** 2
        return [float(w[span] @ terms[span]) for span in spans]
    mses = []
    for span in spans:
        weights, mean = w[span], k.mean[span]
        pumped = weights @ mean
        spread = weights @ (k.variance[span] + (mean - pumped) ** 2)
        mses.append(float(spread / scale + (pumped / ref - t) ** 2))
    return mses


def _cdf(rows: np.ndarray) -> np.ndarray:
    """`np.cumsum(rows[..., :-1], axis=-1)`, formed in place in `rows`."""
    cdf = rows[..., :-1]
    return np.cumsum(cdf, axis=-1, out=cdf)


def _round_totals(cdfs: list, u: np.ndarray) -> np.ndarray:
    """Sum of the inverse-CDF draws of each round's uniforms from each row
    of `cdfs`, without forming the draws: shape (rounds, rows of `cdfs` in
    order).

    Each of `cdfs` has the rounds on its first axis, or one entry there that
    every round shares, its rows on the second and a row's `_cdf` (counts
    from 0) on its last; `u` holds one sorted row of uniforms per round.  A
    draw, capped at the last count, exceeds count k exactly when its uniform
    is >= cdf[k], so a total counts the (uniform, k) pairs with uniform >=
    cdf[k].  One call per round searches the CDF entries of all `cdfs` in
    its uniforms, or, for a lone CDF longer than the uniforms, one per row
    the uniforms in it; both make the same exact comparisons.
    """
    rounds, nu = u.shape
    if len(cdfs) == 1 and cdfs[0].shape[-1] > nu:
        cdf = np.broadcast_to(cdfs[0], (rounds,) + cdfs[0].shape[1:])
        return np.array(
            [[c.searchsorted(u_r, side="right").sum() for c in cdf_r] for u_r, cdf_r in zip(u, cdf)]
        )
    flat = [cdf.reshape(len(cdf), -1) for cdf in cdfs]
    flat = flat[0] if len(flat) == 1 else np.concatenate(flat, axis=-1)
    below = np.empty((rounds, flat.shape[-1]), dtype=np.intp)
    for below_r, u_r, cdf_r in zip(below, u, np.broadcast_to(flat, below.shape)):
        below_r[:] = u_r.searchsorted(cdf_r, side="left")
    # Each row sums its slice of `below`; a row of one count has none and 0.
    widths = np.repeat([cdf.shape[-1] for cdf in cdfs], [cdf.shape[1] for cdf in cdfs])
    live = widths > 0
    totals = np.zeros((rounds, widths.size), dtype=np.intp)
    starts = (np.cumsum(widths) - widths)[live]
    totals[:, live] = nu * widths[live] - np.add.reduceat(below, starts, axis=-1)
    return totals


def _resample_negatives(rng: np.random.Generator, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Relative pump strengths `x` = 1 + a*z of one round, one per
    fluctuation fraction in `a`, with each negative one redrawn as 1 + a*z'
    from fresh normals z' until it is not.

    The replacement normals follow the round's uniforms, and every fraction
    restarts from the generator state there, so each `a` sees the
    replacement normals it would see alone.
    """
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
    """Relative pumps 1 + a*z (rounds x a), truncated at zero, and sorted
    uniforms (rounds x nu) of rounds start..stop-1, each from its stream
    `PCG64(seed).jumped(round)`: one normal z, then nu uniforms, then any
    replacement normals.  One bit generator serves the block, reset to the
    seed's state and advanced to each round: a quarter of the cost of
    seeding a generator per round."""
    a_grid = np.asarray(cfg.a_grid, dtype=np.float64)
    z = np.empty((stop - start, 1))
    x = np.empty((stop - start, a_grid.size))
    u = np.empty((stop - start, cfg.nu))
    bits = np.random.PCG64(seed)
    origin, rng = bits.state, np.random.Generator(bits)
    for i, r in enumerate(range(start, stop)):
        bits.state = origin
        bits.advance(r * _ROUND_STEP % 2**128)
        z[i] = rng.standard_normal()
        rng.random(out=u[i])
        if cfg.negatives == "resample":
            x[i] = _resample_negatives(rng, a_grid, 1.0 + a_grid * z[i])
    if cfg.negatives == "clamp":
        x = np.maximum(1.0 + a_grid * z, 0.0)
    u.sort(axis=-1)
    return x, u


def _averaged_rows(plan, pump: float, nodes: tuple) -> np.ndarray:
    """Pump-averaged count row of each fluctuation fraction, shape (a, counts);
    `nodes` holds the `pump_nodes` layout of the fractions, relative to `pump`.
    Every row is built at the one length `plan.length` gives at all the
    nodes (building no row), in consecutive chunks of the layout of at most
    max(1, _BLOCK_FLOATS // length) nodes, each chunk's weighted rows added
    into every fraction it overlaps; at most two chunks' rows are held."""
    x, w, ends = nodes
    length = plan.length(pump * x)
    averaged = np.zeros((len(ends) - 1, length))
    step = max(1, _BLOCK_FLOATS // length)
    for lo in range(0, x.size, step):
        hi = min(lo + step, x.size)
        rows = plan.rows(pump * x[lo:hi], length)
        for row, first, last in zip(averaged, ends, ends[1:]):
            first, last = max(first, lo), min(last, hi)
            if first < last:
                row += w[first:last] @ rows[first - lo : last - lo]
    return averaged


def _study_totals(
    cfg: FluctuationConfig, pairs: list, survival: float, seed: int, nodes: tuple
) -> np.ndarray:
    """Round totals, shape (pair, a, rounds), of the (source, detector)
    `pairs`; `nodes` holds `pump_nodes` of the fluctuation fractions.

    A round's total counts the draws of its nu sorted uniforms from its count
    rows: per round, the rows at the round's pumps; per repetition, each
    fraction's pump-averaged row (`_averaged_rows`), which every round
    shares, kept as its CDF.  The rounds go in blocks of at most
    `_BLOCK_FLOATS` uniforms, whose streams are drawn once for every pair.
    In a block the pairs go in groups, and one chunk loop counts a group's
    rounds in both modes, as many at a time as their rows fit in
    `_BLOCK_FLOATS` at the pairs' row lengths for the block, and per round
    builds each pair's rows of a chunk in one `plan.rows` call at its
    length, or, where one round's rows of a lone pair pass the budget, its
    fractions in calls of as many rows as fit.  A group of several pairs
    fits the whole block, and `_round_totals` searches all its CDFs at once.
    Shared rows longer than the uniforms take the whole block:
    `_round_totals` then searches by uniform.
    """
    n_a = len(cfg.a_grid)
    totals = np.empty((len(pairs), n_a, cfg.rounds))
    plans = [detected_row_plan(*pair, survival) for pair in pairs]
    pumps = [source_pump(source) for source, _ in pairs]
    shared = [None if cfg.redraw == "per-round" else _cdf(_averaged_rows(plan, pump, nodes)[None])
              for plan, pump in zip(plans, pumps)]
    step = max(1, _BLOCK_FLOATS // cfg.nu)
    for start in range(0, cfg.rounds, step):
        x, u = _round_streams(cfg, seed, start, min(start + step, cfg.rounds))
        lengths = [plan.length(pump * x) if cdf is None else cdf.shape[-1] + 1
                   for plan, pump, cdf in zip(plans, pumps, shared)]
        # A pair joins the group before it while the rows of the block of
        # every pair of the group fit in the budget, and none is longer
        # than the uniforms.
        groups = []
        for p, length in enumerate(lengths):
            if (groups and max(lengths[groups[-1][0]], length) <= cfg.nu + 1
                    and len(x) * n_a * sum(lengths[groups[-1][0] : p + 1]) <= _BLOCK_FLOATS):
                groups[-1][1] = p + 1
            else:
                groups.append([p, p + 1])
        for first, last in groups:
            length = sum(lengths[first:last])
            chunk = max(1, _BLOCK_FLOATS // (n_a * length))
            width = n_a if cfg.redraw == "per-repetition" else max(1, _BLOCK_FLOATS // length)
            if cfg.redraw == "per-repetition" and length > cfg.nu + 1:
                chunk = len(x)
            for lo in range(0, len(x), chunk):
                hi = min(lo + chunk, len(x))
                for f in range(0, n_a, width):
                    xs = x[lo:hi, f : f + width]
                    # The last call's rows (and CDFs, formed in them) are
                    # freed only once the next are built: freed before, they
                    # let the allocator hand the heap top back, and each
                    # call faulted it in again.
                    cdfs = shared[first:last] if cfg.redraw == "per-repetition" else [
                        _cdf(plans[p].rows(pumps[p] * xs, lengths[p])) for p in range(first, last)]
                    counted = _round_totals(cdfs, u[lo:hi]).T.reshape(last - first, -1, hi - lo)
                    totals[first:last, f : f + width, start + lo : start + hi] = counted
    return totals


def _band_edge(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """The q-th percentile along the last axis of `sorted_values`, sorted
    along it, by numpy's default 'linear' rule with its bits: at the virtual
    index v = (n - 1) * (q / 100), with floor i and fraction g, a + (b - a) g
    of the order statistics a and b at i and i + 1, or b - (b - a) (1 - g)
    where g >= 0.5, as `np.percentile` rounds it.  `np.percentile` itself
    imports `numpy.ma` (through `np.unique`), 15 ms of a fresh process."""
    virtual = (sorted_values.shape[-1] - 1) * (q / 100.0)
    i = math.floor(virtual)
    g = virtual - i
    a, b = sorted_values[..., i], sorted_values[..., i + 1]
    if g >= 0.5:
        return b - (b - a) * (1.0 - g)
    return a + (b - a) * g


def fluctuation_study(
    cfg: FluctuationConfig, pairs, channel: Channel, seed: int
) -> list[list[McSummary]]:
    """MSE versus pump-fluctuation size for each (source, detector) pair of
    `pairs`, one summary list per pair; `fluctuation_study(cfg, [(source,
    detector)], channel, seed)[0]` studies one pair.

    The nominal pump is the one the source carries (the coherent mean or the
    multiplexed pair mean).  Runs cfg.rounds rounds; each draws its round
    total of counts or clicks for every pair and fluctuation fraction `a`
    from its one stream (`_round_streams`), forms the transmission estimate
    with the fluctuation-free reference, and records its squared error
    against the true transmission.  Each summary carries the exact MSE the
    rounds sample (`fluctuation_mse`).
    """
    pairs = list(pairs)
    refs = [reference_mean(source, detector, channel.detector_eff) for source, detector in pairs]
    nodes = pump_nodes(cfg.a_grid, cfg.negatives)
    totals = _study_totals(cfg, pairs, channel.survival, seed, nodes)
    scale = cfg.nu * np.array(refs)[:, None, None]
    sq_err = (totals / scale - channel.transmission) ** 2
    sorted_err = np.sort(sq_err, axis=-1)
    lows, highs = (_band_edge(sorted_err, q).tolist() for q in (16.0, 84.0))
    means = sq_err.mean(axis=-1).tolist()
    ses = (sq_err.std(ddof=1, axis=-1) / math.sqrt(cfg.rounds)).tolist()
    summaries = []
    for (source, detector), ref, mean, se, low, high in zip(pairs, refs, means, ses, lows, highs):
        exact = fluctuation_mse(cfg, source, detector, channel, nodes, ref)
        summaries.append(
            [McSummary(*cells) for cells in zip(cfg.a_grid, mean, se, low, high, exact)]
        )
    return summaries
