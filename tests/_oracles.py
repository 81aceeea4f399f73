"""Independent brute-force oracles.

Everything here is written against the physical event process with plain
Python loops and exact combinatorics, deliberately sharing no code with the
closed-form pipelines it is used to check.  The pump-fluctuation oracles add
one numerical step: Gauss-Legendre quadrature over the Gaussian pump, for the
number-resolving and the threshold estimator; `legendre_rule` derives by
Newton's method the rule the package commits as a table.
`mask_bisection` is an array bisection on the closed-form mean under the
pump tuning's stop rule, the reference its Newton-tuned pumps are compared
with.
`poisson_support_walk` is the count-by-count Poisson truncation search.
`total_count_law` is the plain nu-fold convolution power of a count row,
the reference for the law the Monte Carlo validation samples its totals
from, and `_total_count_row` the same power by repeated squaring with both
tails trimmed, fast enough to check that law at large nu;
`round_total_law` builds from the first the law of a fluctuation round's
total in each redraw and negatives mode.
`per_round_totals` and `per_repetition_totals` are the references for the
batched fluctuation rounds: they take the count rows as a function and
check only how the rounds draw and count, one at a time.  `rows_csv` and
`rows_json` write output rows one row at a time, the reference for the
column writers.
"""

import json
import math

import numpy as np


def poisson_probs(mean: float, n_cut: int = 40) -> list[float]:
    """Poisson P(0..n_cut) by the textbook formula."""
    return [math.exp(-mean) * mean**n / math.factorial(n) for n in range(n_cut + 1)]


def poisson_support_walk(mu: float, tail_target: float) -> int:
    """Smallest n whose geometric tail bound pmf(n+1) / (1 - mu/(n+2)) is
    at most `tail_target`, walking log pmf(n) up from n = 0 one count at a
    time; the bound is taken only once the terms decay (n + 2 > mu)."""
    if mu == 0.0:
        return 0
    log_target = math.log(tail_target)
    log_term = -mu
    n = 0
    while True:
        log_term_next = log_term + math.log(mu / (n + 1))
        if n + 2 > mu and log_term_next - math.log1p(-mu / (n + 2)) <= log_target:
            return n
        n += 1
        log_term = log_term_next


def enumerate_mux_output(
    stages: int,
    pair_mean: float,
    herald_eff: float,
    stage_transmission: float,
    optics_transmission: float,
    n_cut: int = 40,
) -> list[float]:
    """Window-by-window enumeration of the multiplexed source output.

    Walks every temporal window in order, enumerates the Poisson pair number
    and herald outcome in each, routes the earliest heralded window through
    the delay network (one survival trial per photon per stage) and the
    output optics, and accumulates the resulting photon-number distribution.
    Returns P(0..n_cut); the discarded tail is the Poisson tail beyond n_cut.
    """
    windows = 2**stages
    pois = poisson_probs(pair_mean, n_cut)
    herald = [1.0 - (1.0 - herald_eff) ** n for n in range(n_cut + 1)]
    p_window_click = sum(pois[n] * herald[n] for n in range(1, n_cut + 1))

    survive = stage_transmission**stages * optics_transmission
    out = [0.0] * (n_cut + 1)
    out[0] += (1.0 - p_window_click) ** windows  # no window heralded: vacuum
    for w in range(1, windows + 1):
        p_earlier_silent = (1.0 - p_window_click) ** (w - 1)
        for n in range(1, n_cut + 1):
            joint = p_earlier_silent * pois[n] * herald[n]
            for k in range(n + 1):
                out[k] += (
                    joint
                    * math.comb(n, k)
                    * survive**k
                    * (1.0 - survive) ** (n - k)
                )
    return out


def sync_probability(stages: int, pair_mean: float, herald_eff: float) -> float:
    """Probability that at least one of the 2**stages windows heralds,
    1 - (1 - p_w)**(2**stages).

    Each window heralds independently with p_w = 1 - exp(-pair_mean
    herald_eff): a Poisson pair number, each idler detected with probability
    herald_eff.  The power is taken as -expm1(2**stages log1p(-p_w)), which
    does not cancel when p_w is tiny.
    """
    p_w = -math.expm1(-pair_mean * herald_eff)
    return 1.0 if p_w == 1.0 else -math.expm1(2**stages * math.log1p(-p_w))


def enumerate_click_probability(probs, survival: float) -> float:
    """Threshold click probability by direct summation over photon numbers.

    The per-n click probability 1 - (1 - s)^n is evaluated as
    -expm1(n log1p(-s)), which does not cancel at small survival.
    """
    log_loss = math.log1p(-survival) if survival < 1.0 else -math.inf
    return sum(-p * math.expm1(n * log_loss) for n, p in enumerate(probs) if n >= 1)


def enumerate_no_click_probability(probs, survival: float) -> float:
    """Probability that no photon survives, by direct summation of
    P(n) (1 - s)^n: a sum of non-negative terms, accurate where clicks are
    all but certain."""
    return sum(p * (1.0 - survival) ** n for n, p in enumerate(probs))


def thinned_count_moments(probs, survival: float) -> tuple[float, float]:
    """Mean and second moment of the count left by binomial thinning.

    Each of the n photons (probability probs[n]) survives independently with
    probability `survival`, so the k-th factorial moment scales by survival**k.
    """
    mean = sum(n * p for n, p in enumerate(probs))
    pairs = sum(n * (n - 1) * p for n, p in enumerate(probs))
    return survival * mean, survival**2 * pairs + survival * mean


def tune_pump(output_probs, target_mean: float) -> float:
    """Pump strength at which `output_probs(pump)` has mean `target_mean`.

    Plain bisection; assumes the mean grows with the pump.
    """

    def mean(pump):
        return sum(n * p for n, p in enumerate(output_probs(pump)))

    lo, hi = 0.0, 1.0
    while mean(hi) < target_mean:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mean(mid) < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mask_bisection(mean_at, target, tol: float = 1e-10):
    """Pumps at which `mean_at` (an increasing mean of a pump array) meets
    each entry of the array `target`, by an array bisection written with a
    `hit` and a `low` mask per step: the reference for the pumps of
    `sources.tune_pair_mean`, which stops on the same rule.  Each entry stops
    once its residual is below `tol` times min(1, target), keeping lo = hi,
    or its bracket shrinks to adjacent floats."""
    stop = tol * np.minimum(1.0, target)
    lo, hi = np.zeros(target.shape), np.array(np.maximum(1.0, target))
    while (short := mean_at(hi) < target).any():
        lo, hi = np.where(short, hi, lo), np.where(short, 2.0 * hi, hi)

    mid = None
    while True:
        previous, mid = mid, 0.5 * (lo + hi)
        if previous is not None and (mid == previous).all():
            return mid
        residual = mean_at(mid) - target
        hit = np.abs(residual) < stop
        low = residual < 0.0
        np.copyto(lo, mid, where=low | hit)
        np.copyto(hi, mid, where=~low | hit)


def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated with P_{n-1} by the three-term
    recurrence, from the usual cosine guesses; it reaches rounding in four
    steps.  The weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def gaussian_pump_nodes(a: float, negatives: str = "clamp") -> list[tuple[float, float]]:
    """Quadrature nodes (x, weight) for the relative pump x = 1 + a*z.

    z is standard normal.  Draws with x < 0 either clamp to a point mass at
    x = 0 ("clamp") or are redrawn, which renormalizes the positive part
    ("resample").  The positive part z in (-1/a, 10) is integrated by 48-node
    Gauss-Legendre (closed-form coherent moments agree to ~1e-13); the normal
    tails beyond |z| = 10 (< 1e-23 each) are dropped, so below a = 0.1 the
    interval starts at z = -10, where 48 nodes still resolve the density.
    """
    if a == 0.0:
        return [(1.0, 1.0)]
    z_min, z_max = max(-1.0 / a, -10.0), 10.0
    half = 0.5 * (z_max - z_min)
    nodes = []
    for s, w in zip(*np.polynomial.legendre.leggauss(48)):
        z = z_min + half * (s + 1.0)
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        nodes.append((1.0 + a * z, half * w * density))
    p_negative = 0.5 * math.erfc(1.0 / (a * math.sqrt(2.0)))
    if negatives == "clamp":
        return nodes + [(0.0, p_negative)]
    if negatives == "resample":
        return [(x, w / (1.0 - p_negative)) for x, w in nodes]
    raise ValueError(f"unknown negatives mode {negatives!r}")


def nr_mse_fluctuating_pump(
    count_moments,
    reference: float,
    transmission: float,
    nu: int,
    a: float,
    redraw: str,
    negatives: str = "clamp",
) -> float:
    """Exact MSE of the number-resolving estimate sum(K_i) / (nu * reference).

    `count_moments(x)` gives the mean and second moment of one repetition's
    detected count K at relative pump x (pump = nominal * x), and x follows
    `gaussian_pump_nodes(a, negatives)`.  "per-round": one pump draw shared
    by all nu repetitions, so the MSE is averaged over the pump.
    "per-repetition": an independent draw per repetition, so the K_i are
    i.i.d. with the pump-averaged moments.
    """

    def mse(m1, m2):
        return (
            (m2 + (nu - 1) * m1 * m1) / (nu * reference**2)
            - 2.0 * transmission * m1 / reference
            + transmission**2
        )

    weighted = [(w, *count_moments(x)) for x, w in gaussian_pump_nodes(a, negatives)]
    if redraw == "per-round":
        return sum(w * mse(m1, m2) for w, m1, m2 in weighted)
    if redraw == "per-repetition":
        return mse(sum(w * m1 for w, m1, _ in weighted), sum(w * m2 for w, _, m2 in weighted))
    raise ValueError(f"unknown redraw mode {redraw!r}")


def threshold_mse_fluctuating_pump(
    output_probs,
    survival: float,
    reference: float,
    transmission: float,
    nu: int,
    a: float,
    redraw: str,
    negatives: str = "clamp",
) -> float:
    """Exact MSE of the threshold estimate (clicks over nu repetitions) / (nu * reference).

    `output_probs(x)` gives the photon-number distribution at the sample at
    relative pump x, and x follows `gaussian_pump_nodes(a, negatives)`; a
    repetition clicks with probability p(x), `enumerate_click_probability`
    at `survival`.  The clicks are Binomial(nu, p) with
    MSE(p) = [nu p (1 - p) + nu^2 (p - reference * transmission)^2] / (nu * reference)^2.
    "per-round": one pump per round, so MSE(p(x)) is averaged over the pump.
    "per-repetition": an independent pump per repetition, so the clicks are
    Binomial(nu, E p(x)).
    """

    def mse(p):
        return (nu * p * (1.0 - p) + (nu * (p - reference * transmission)) ** 2) / (
            nu * reference
        ) ** 2

    weighted = [
        (w, enumerate_click_probability(output_probs(x), survival))
        for x, w in gaussian_pump_nodes(a, negatives)
    ]
    if redraw == "per-round":
        return sum(w * mse(p) for w, p in weighted)
    if redraw == "per-repetition":
        return mse(sum(w * p for w, p in weighted))
    raise ValueError(f"unknown redraw mode {redraw!r}")


def total_count_law(row, nu: int) -> np.ndarray:
    """Law of the sum of `nu` independent counts distributed as `row`: the
    plain nu-fold `np.convolve` power, P(K = k) at k = 0 .., with no
    trimming and no renormalization."""
    law = np.ones(1)
    for _ in range(nu):
        law = np.convolve(law, row)
    return law


# The mass `_trim_tails` drops per tail: `sources.ROW_TAIL`.
ROW_TAIL = 1e-18


def _trim_tails(offset: int, row: np.ndarray) -> tuple[int, np.ndarray]:
    """Drop the entries at each end of `row` holding at most `ROW_TAIL` in
    total, and normalize the rest; `offset` is the count of the first entry."""
    lo = int(np.searchsorted(np.cumsum(row), ROW_TAIL, side="right"))
    hi = row.size - int(np.searchsorted(np.cumsum(row[::-1]), ROW_TAIL, side="right"))
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


def thinned_probs(probs, survival: float) -> list[float]:
    """Law of the count left by binomial thinning: each of the n photons
    (probability probs[n]) survives independently with probability
    `survival`."""
    out = [0.0] * len(probs)
    for n, p in enumerate(probs):
        for k in range(n + 1):
            out[k] += p * math.comb(n, k) * survival**k * (1.0 - survival) ** (n - k)
    return out


def round_total_law(
    output_probs, survival: float, detector: str, nu: int, a: float, redraw: str, negatives: str
) -> np.ndarray:
    """Law of one round's total over nu repetitions in a pump-fluctuation
    study, P(total = k) at k = 0 ..

    `output_probs(x)` gives the photon-number distribution at the sample at
    relative pump x, and x follows `gaussian_pump_nodes(a, negatives)`.  A
    repetition's count is the photon number thinned at `survival`
    (`detector` "nr") or a click, with probability
    `enumerate_click_probability` ("threshold").  "per-round": the nu counts
    share one pump, so the law is the pump mixture of the nu-fold powers
    (`total_count_law`) of the rows at each node.  "per-repetition": each
    count draws its own pump, so the law is the nu-fold power of the
    pump-averaged row.
    """

    def row(x):
        probs = output_probs(x)
        if detector == "threshold":
            return np.array([
                enumerate_no_click_probability(probs, survival),
                enumerate_click_probability(probs, survival),
            ])
        if detector == "nr":
            return np.array(thinned_probs(probs, survival))
        raise ValueError(f"unknown detector {detector!r}")

    def mixture(weighted):
        out = np.zeros(max(r.size for _, r in weighted))
        for w, r in weighted:
            out[: r.size] += w * r
        return out

    nodes = gaussian_pump_nodes(a, negatives)
    if redraw == "per-round":
        return mixture([(w, total_count_law(row(x), nu)) for x, w in nodes])
    if redraw == "per-repetition":
        return total_count_law(mixture([(w, row(x)) for x, w in nodes]), nu)
    raise ValueError(f"unknown redraw mode {redraw!r}")


def per_round_totals(rows, pump: float, a_grid, rounds: int, nu: int, negatives: str, seed: int):
    """Round totals (a, rounds) of a per-round pump-fluctuation study, formed
    one round at a time with each repetition's count drawn explicitly.

    Round r builds its own generator on numpy's jumped stream
    `PCG64(seed).jumped(r)` and draws one normal z, then nu uniforms.  The
    round's pump at fluctuation fraction a is pump * (1 + a z), clamped at
    zero, or resampled from the generator state after the uniforms (every a
    restarting from that state).  Each repetition's count is the inverse-CDF
    draw of its uniform from the round's count row at that pump, capped at
    the last count, and the round total sums them.  `rows(mu)` gives the
    count rows at a pump array.
    """
    a = np.asarray(a_grid, dtype=np.float64)
    totals = np.empty((a.size, rounds))
    for r in range(rounds):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(r))
        z = rng.standard_normal()
        u = rng.random(nu)
        mu = pump * (1.0 + a * z)
        if negatives == "clamp":
            mu = np.maximum(mu, 0.0)
        else:
            state = rng.bit_generator.state
            for i in np.flatnonzero(mu < 0):
                rng.bit_generator.state = state
                while mu[i] < 0:
                    mu[i] = pump * (1.0 + a[i] * rng.standard_normal())
        for i, row in enumerate(rows(mu)):
            totals[i, r] = _invert_cdf(0, row, u).sum()
    return totals


def per_repetition_totals(rows, pump: float, nodes, rounds: int, nu: int, seed: int):
    """Round totals (a, rounds) of a per-repetition pump-fluctuation study,
    formed one round at a time with each repetition's count drawn explicitly.

    Round r builds its own generator on numpy's jumped stream
    `PCG64(seed).jumped(r)` and draws one normal, which a per-repetition
    round leaves unused, then nu uniforms.  `nodes` holds the pump
    quadrature (x, w, ends) of the fluctuation fractions, and a repetition's
    count follows the fraction's pump-averaged row w_i @ rows(pump * x_i),
    with x_i and w_i its slices of x and w.  Each count is the inverse-CDF
    draw of its uniform from that row, capped at the last count, and the
    round total sums them.
    """
    x, w, ends = nodes
    averaged = [w[lo:hi] @ rows(pump * x[lo:hi]) for lo, hi in zip(ends, ends[1:])]
    totals = np.empty((len(averaged), rounds))
    for r in range(rounds):
        rng = np.random.Generator(np.random.PCG64(seed).jumped(r))
        rng.standard_normal()
        u = rng.random(nu)
        for i, row in enumerate(averaged):
            totals[i, r] = _invert_cdf(0, row, u).sum()
    return totals


def _invert_cdf(offset: int, row, u):
    """Count drawn from P(K = offset + i) = row[i] for each uniform in `u`,
    capped at the last count."""
    cdf = np.cumsum(row)
    return offset + np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def rows_csv(columns, rows) -> str:
    """CSV of output rows, one row at a time: the header of `columns`, then
    `str` of each cell, None empty, each line ending in a newline."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(["" if v is None else str(v) for v in row]))
    return "\n".join(lines) + "\n"


def rows_json(rows) -> str:
    """JSON of output rows: `json.dumps` of the list of their dicts,
    indented by 2, with a final newline."""
    return json.dumps([row._asdict() for row in rows], indent=2) + "\n"
