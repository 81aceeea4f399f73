"""Light-source models.

Three sources feed the transmission measurement: a coherent beam (Poissonian),
an ideal Fock state, and a heralded single-photon source whose output is
synchronized to a clock by a binary-divided time-multiplexing network.

The multiplexed source works on a pair emitter (e.g. parametric
down-conversion) running over 2**stages temporal windows per clock period.
Detecting the idler photon of a pair heralds its signal twin; the network then
delays the signal so it leaves on the clock tick.  Raising the pump increases
the herald rate but also the multi-photon contamination, so the pump strength
that realizes a wanted mean photon number at the sample is found numerically
(`tune_pair_mean`, safeguarded Newton steps on the closed-form mean, in one
array iteration for every stage count and target), once `check_reach`, the
one rule on whether a target can be reached, passes.

No other module knows how a source kind is evaluated.  The mean, variance,
click probabilities and log generating function at the sample plane
(`source_moments`, `source_click_probabilities`, `source_log_pgf`) and the
detected-count distribution (a
`CountRows` plan, which sizes and builds the rows at any number of pump
arrays: Poisson, Binomial, or a vacuum term plus two Poissons) are closed
forms, evaluated entry by entry over arrays: of pumps, which a coherent
`mean` or a multiplexed `pair_mean` may hold (a mean grid) or `mu` gives in
place of the source's own (the Monte Carlo pump draws), and of survivals (a
transmission grid).  The moments and click probabilities also take a list
of `Multiplexed` sources, the networks of a run, whose pumps share one
shape: their pumps are stacked on a leading network axis, ahead of the
grid's axes, and their constants are columns along it (`_mux_pumps`,
`_mux_constants`), so each formula is evaluated once for all networks,
entry by entry with the bits each network gets alone.  One source is the
one-network case of the same code.  `_mux_constants` alone derives a
network's constants from its fields; the count rows read them there too.

Each source constructor checks its own fields, as `detection.Channel` and
`montecarlo.FluctuationConfig` do theirs, and raises the `ConfigError`
defined here, naming the field; `check_count` and `check_range` are the
count and range rules they share.  A network not yet tuned is a
`Multiplexed` at pump 0, whose `pair_mean` `check_reach` and
`tune_pair_mean` ignore.

Every Monte Carlo count law is cut by one rule, `count_window`, the
Chernoff edges at `ROW_TAIL` from the log generating function: a count row
ends at the upper edge of one count, a total of nu counts
(`montecarlo._total_count_pmf`) lies between its two edges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from subshot.pmf import Moments, binomial_row, log1p, poisson_rows

# Calibrated defaults: herald-arm detection probability per idler photon and
# signal transmission per delay stage.  Both are plain configuration values;
# no model logic depends on these particular numbers.
DEFAULT_HERALD_EFF = 0.9
DEFAULT_STAGE_TRANSMISSION = 0.88
DEFAULT_OPTICS_TRANSMISSION = 0.9

# Largest accepted stage count.  Built multiplexing networks have at most a
# few tens of stages, and the cap keeps the window count 2**stages and the
# tuned pump times it far inside the float range: from 1024 stages the count
# does not convert to a float, and from 865 stages the pump tuning overflows
# at mean 1.
MAX_STAGES = 64

# Largest pump strength the tuning brackets.  With at most 2**MAX_STAGES
# windows the herald exponent 2**stages * herald_eff * pump stays below
# 1e270, so every closed form stays finite, without an overflow warning, up
# to twice this pump.
MAX_PUMP = 1e250

# The pump tuning stops once the output mean lies within this times
# min(1, target) of its target: relative below one photon, absolute above.
TUNING_TOL = 1e-10

# Count rows and totals discard at most this mass per tail (`count_window`):
# far below the spacing of the uniforms the fluctuation rounds sample them
# with, and a bias far below the standard error of `mc_estimate` at any
# trial count.
ROW_TAIL = 1e-18

# The Chernoff exponents t over which `count_window` minimizes its tail
# bounds.  A near-Gaussian total of variance V has its best t near
# sqrt(2 log(1 / ROW_TAIL) / V), so 1e-8 serves V up to 1e17; t = 30 puts
# the edges of a point mass within log(1 / ROW_TAIL) / 30 = 1.4 counts, and
# from t = 37 on e^{-t} - 1 rounds to -1.  Neighbours differ by a factor
# 1.41, which widens a Gaussian window by at most 1.5%.  A window sized
# from the mean and variance instead misses mass: under a weak herald
# (7e-11, mean 1, nu = 200) the totals of two and three bursts, 8e-6 and
# 1e-8 of the law, lie 31 and 47 standard deviations up.  (Not
# `np.geomspace`, whose first call adds 0.3 ms to the import.)  The points
# e^t - 1 and e^-t - 1, and the exponents log1p of them as evaluated.
_CHERNOFF_T = 1e-8 * (30.0 / 1e-8) ** (np.arange(64) / 63)
_CHERNOFF_UP = np.expm1(_CHERNOFF_T)
CHERNOFF_POINTS = np.concatenate([_CHERNOFF_UP, -_CHERNOFF_UP / (_CHERNOFF_UP + 1.0)])
CHERNOFF_POINTS.flags.writeable = False
_CHERNOFF_EXPONENTS = np.log1p(CHERNOFF_POINTS)

# The smallest log G(e^-t) of one count that `count_window`'s lower bound
# takes.  A G formed as 1 + (G - 1), as a click's and a Fock state's are,
# carries an absolute rounding error of a few eps, and log G one of a few
# eps / G: below e^-14, 1e-9.
_CHERNOFF_MIN_LOG = -14.0

# The fields of a multiplexed source beside its stage count and pump.
_CALIBRATION = ("herald_eff", "stage_transmission", "optics_transmission")


class ConfigError(ValueError):
    """Invalid input, naming the offending field."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


def check_count(field: str, value, low: int, high: float = math.inf) -> int:
    """`value` as an int; ConfigError naming `field` unless it is an
    integer-valued number in [`low`, `high`] (NaN and infinities are not)."""
    if not (value >= low and value % 1 == 0):
        raise ConfigError(field, f"must be an integer >= {low}, got {value!r}")
    if value > high:
        raise ConfigError(field, f"must be at most {high}, got {value!r}")
    return int(value)


def check_range(field: str, value, high: float = 1.0) -> None:
    """ConfigError naming `field` unless `value`, a float or an array of
    them, is finite (not NaN) and lies in [0, `high`] everywhere.  A Python
    number is checked by comparisons, an array by ufuncs; both name the
    first bad entry as a float."""
    if isinstance(value, (int, float)):
        if not (0.0 <= value <= high and math.isfinite(value)):
            raise ConfigError(field, f"must be finite and lie in [0, {high:g}], got {float(value)}")
        return
    v = np.asarray(value, dtype=np.float64)
    bad = ~((v >= 0.0) & (v <= high) & np.isfinite(v))
    if bad.any():
        raise ConfigError(field, f"must be finite and lie in [0, {high:g}], got {v[bad][0]}")


@dataclass(frozen=True)
class Coherent:
    """Coherent beam; `mean` is the mean photon number at the sample plane,
    a float or an array of them (a mean grid)."""

    mean: float | np.ndarray

    def __post_init__(self):
        check_range("mean", self.mean, math.inf)


@dataclass(frozen=True)
class Fock:
    """Ideal number state with exactly `photons` photons, lossless delivery."""

    photons: int

    def __post_init__(self):
        object.__setattr__(self, "photons", check_count("photons", self.photons, 0))


@dataclass(frozen=True)
class Multiplexed:
    """Time-multiplexed heralded single-photon source.

    stages: number of binary delay stages; the network addresses 2**stages
        temporal windows per clock period.
    pair_mean: mean photon-pair number per temporal window, a float or an
        array of them (the pumps of a mean grid).
    herald_eff: probability that an idler photon produces a herald click.
    stage_transmission: signal transmission of one delay stage; the signal
        crosses every stage (delay or bypass), so the network transmission is
        stage_transmission**stages.
    optics_transmission: source-to-sample optical transmission.
    """

    stages: int
    pair_mean: float | np.ndarray
    herald_eff: float = DEFAULT_HERALD_EFF
    stage_transmission: float = DEFAULT_STAGE_TRANSMISSION
    optics_transmission: float = DEFAULT_OPTICS_TRANSMISSION

    def __post_init__(self):
        object.__setattr__(self, "stages", check_count("stages", self.stages, 1, MAX_STAGES))
        check_range("pair_mean", self.pair_mean, math.inf)
        for name in _CALIBRATION:
            check_range(name, getattr(self, name))


Source = Coherent | Fock | Multiplexed


def _mux_constants(sources, ndim: int = 0) -> tuple:
    """h, -h, -2**stages h, network and optics transmission of one
    `Multiplexed` as floats, or of a list of them as columns that
    broadcast against `ndim` trailing pump axes."""
    one = isinstance(sources, Multiplexed)
    rows = [(s.herald_eff, -s.herald_eff, -(2**s.stages) * s.herald_eff,
             s.stage_transmission**s.stages, s.optics_transmission)
            for s in ([sources] if one else sources)]
    if one:
        return rows[0]
    # One array of the five columns, each a contiguous row of it.
    return tuple(np.array(list(zip(*rows))).reshape((5, len(rows)) + (1,) * ndim))


def _herald(constants: tuple, mu) -> tuple:
    """-p_w, e^{-mu h}, -P_sync = (1 - p_w)^(2**stages) - 1 and the gain
    g = P_sync / p_w (P_sync = 0 where p_w = 0) at an array of pump values
    `mu`, from `_mux_constants`; 1 - p_w = e^{-mu h}, so both stay finite
    when p_w rounds to 1 under a strong pump."""
    exponent = mu * constants[1]
    neg_p_w = np.expm1(exponent)
    neg_sync = np.expm1(constants[2] * mu)
    return neg_p_w, np.exp(exponent), neg_sync, neg_sync / (neg_p_w - (neg_p_w == 0.0))


def _mux_mean(constants: tuple, mu) -> tuple:
    """The output mean g (mu Q) c, c = h e^{-mu h} + p_w, at a pump array `mu`
    (`_mux_constants`), and c and the `_herald` terms; finite to 2 * MAX_PUMP.
    Where mu Q is subnormal, and so has lost bits, the mean is formed as
    (g mu) Q c instead: the gain, up to 2**stages, lifts the pump first."""
    h, _, _, network, optics = constants
    terms = _herald(constants, mu)
    neg_p_w, no_click, _, gain = terms
    c = h * no_click - neg_p_w
    mq = mu * network * optics
    if mq.min(initial=math.inf) < sys.float_info.min:
        mean = np.where(mq < sys.float_info.min, gain * mu * network * optics * c, gain * mq * c)
        return mean, c, terms
    return gain * mq * c, c, terms


def _mux_factorial_moments(constants: tuple, mu) -> tuple:
    """The first two factorial moments of the output at a pump array `mu`,
    from `_mux_constants`: derivatives at s = 1 of its generating function
    G(s) = 1 - P_sync + (P_sync/p_w) [e^{mu Q (s-1)} - e^{mu ((1-h)(1-Q+Qs) - 1)}]
    with h the herald efficiency and Q the network times optics transmission.
    The brackets 1 - (1-h)^k e^{-mu h} are expanded as p_w + (1 - (1-h)^k) e^{-mu h}
    so that no cancellation occurs at weak pump; the first is `_mux_mean`.
    """
    h, _, _, network, optics = constants
    first, _, (neg_p_w, no_click, _, gain) = _mux_mean(constants, mu)
    mq = mu * network * optics
    return first, gain * mq * mq * (h * (2.0 - h) * no_click - neg_p_w)


def _mux_clicks(constants: tuple, mu, survival):
    """No-click and click probability G(1 - s) and 1 - G(1 - s) after a
    thinning by s = `survival` (a float or an array) at a pump array `mu`,
    from `_mux_constants`.

    With x = mu Q s, y = (1-h) x and g = P_sync/p_w, they are evaluated as
    (1 - P_sync) + g e^{-x} (1 - e^{-h (mu - x)}) and, exactly 0 at s = 0,
    g [p_w (1 - e^{-y}) + e^{-y} (1 - e^{-h x})]: neither cancels when a weak
    herald needs a huge pump or a click is all but certain.
    """
    h, _, neg_rate, network, optics = constants
    neg_p_w, _, _, gain = _herald(constants, mu)
    x = mu * (network * optics * survival)
    y = (1.0 - h) * x
    miss = np.exp(neg_rate * mu) - gain * np.exp(-x) * np.expm1(h * (x - mu))
    return miss, gain * (neg_p_w * np.expm1(-y) - np.exp(-y) * np.expm1(-h * x))


def _mux_output_rows(constants: tuple, mu, survival: float, n_max: int):
    """Output photon-number distribution after a further thinning by `survival`.

    With q = network * optics * survival, h the herald efficiency and
    g = P_sync/p_w, the heralded window emits Poisson(mu) pairs weighted by the
    herald probability and is thinned by q, which leaves two Poissons:

        P(n) = (1 - P_sync) [n = 0] + g Pois(n; mu q) [1 - (1-h)^n e^{-mu h (1-q)}]

    `mu` is an array of pump values and `constants` is `_mux_constants` of
    one network; the result has shape `mu.shape + (n_max + 1,)`, its Poisson
    rows `pmf.poisson_rows`, which read the one log-factorial table.
    """
    h, _, _, network, optics = constants
    q = network * optics * survival
    _, _, neg_sync, gain = _herald(constants, mu)
    ns = np.arange(n_max + 1)
    if h < 1.0:
        log_miss = ns * math.log1p(-h)
    else:
        log_miss = np.where(ns == 0, 0.0, -np.inf)
    # -(1 - (1-h)^n e^{-mu h (1-q)}) without cancellation: <= 0 and finite at h = 1.
    neg_herald = log_miss - (mu * (h * (1.0 - q)))[..., None]
    np.expm1(neg_herald, out=neg_herald)
    rows = poisson_rows(mu * q, n_max)
    rows *= gain[..., None]
    rows *= neg_herald
    np.negative(rows, out=rows)
    rows[..., 0] += 1.0 + neg_sync
    return rows


def check_reach(sources, target_mean) -> None:
    """ConfigError unless every network of `sources`, a list of `Multiplexed`
    sources whose pumps it ignores, reaches each target of `target_mean` at
    a pump up to MAX_PUMP.

    The mean grows with the pump, so one evaluation at MAX_PUMP decides; it
    stays 0 where a calibration field is 0.  A refusal names the field that
    loses the most light, the network transmission standing for the stage's.
    """
    top = float(np.max(target_mean))
    constants = _mux_constants(sources, 1)
    if (weak := np.flatnonzero(_mux_mean(constants, MAX_PUMP)[0] < top)).size:
        i, source = weak[0], sources[weak[0]]
        field = _CALIBRATION[int(np.argmin([constants[k][i] for k in (0, 3, 4)]))]
        raise ConfigError(field, f"{getattr(source, field)} is too small: a {source.stages}-stage "
                                 f"source needs a pump above {MAX_PUMP:g} to reach mean {top}")


def tune_pair_mean(source, target_mean):
    """Pump strength whose output mean at the sample equals `target_mean`,
    for a `Multiplexed` `source` or, in one array iteration, each source of
    a list of them (a leading result axis) and each entry of an array of
    targets.  The `pair_mean` fields are ignored.

    The closed-form output mean is continuous, strictly increasing in the
    pump and grows like pump * Q without bound.  Each entry doubles its own
    bracket, then takes Newton steps on the mean, the slope in closed form
    from `_herald`, from the weak-pump guess target / (Q 2**stages h).  A
    step that leaves the bracket, meets the 0/0 of the slope at pump 0 or
    follows a residual that did not change (the mean rounds flat there) goes
    to the bracket's midpoint in the order of the floats' bits instead, so
    every pump evaluated lies inside the bracket and shrinks it.  An entry
    stops once its mean residual drops below `TUNING_TOL` times
    min(1, target), so tiny targets are met to relative precision (it then
    keeps lo = hi), or its bracket shrinks to adjacent floats, where a large
    mean cannot get closer (it stays at the end it evaluated last); the
    loop ends when no pump moves, and each entry's pump is the one it gets
    tuned alone.  A target that no pump up to MAX_PUMP reaches is refused
    first, by `check_reach`.
    """
    target = np.asarray(target_mean, dtype=np.float64)
    if (bad := ~((target > 0) & np.isfinite(target))).any():
        raise ValueError(f"target mean must be > 0 and finite, got {target[bad][0]}")
    check_reach([source] if isinstance(source, Multiplexed) else source, target)
    constants = _mux_constants(source, target.ndim)
    h, _, neg_rate, network, optics = constants
    target = np.broadcast_to(target, np.broadcast_shapes(np.shape(h), target.shape))

    stop = TUNING_TOL * np.minimum(1.0, target)
    # Above `floor` is above -stop, or at least 0 where `stop` underflows to 0.
    floor = -np.maximum(stop, math.ulp(0.0))
    lo, hi = np.zeros(target.shape), np.array(np.maximum(1.0, target))
    while (short := _mux_mean(constants, hi)[0] < target).any():
        # A guard only: `check_reach` has refused every target above the ceiling.
        if (ceiling := short & (hi > MAX_PUMP)).any():
            raise ValueError(f"target mean {target[ceiling][0]} needs a pump above {MAX_PUMP:g}")
        lo, hi = np.where(short, hi, lo), np.where(short, 2.0 * hi, hi)

    with np.errstate(divide="ignore", over="ignore"):
        # Where the tangent at pump 0, of slope Q 2**stages h, meets the target.
        mu = np.array(np.clip(target / (network * optics * -neg_rate), lo, hi))
    previous = np.full(target.shape, np.nan)
    while True:
        mean, c, (neg_p_w, no_click, neg_sync, gain) = _mux_mean(constants, mu)
        residual = mean - target
        # Within `stop` of the target, both ends move to mu.
        np.copyto(lo, mu, where=residual < stop)
        np.copyto(hi, mu, where=residual > floor)
        # The midpoint in the order of the floats' bits: arithmetic on a
        # narrow bracket, geometric on a wide one, so that any bracket
        # shrinks to adjacent floats (mid = lo) in at most 64 midpoints.
        lo_bits = lo.view(np.int64)
        mid = (lo_bits + ((hi.view(np.int64) - lo_bits) >> 1)).view(np.float64)
        moving = mid != lo
        if not moving.any():
            return _scalar(mu)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dgain = (neg_rate * (1.0 + neg_sync) + h * gain * no_click) / neg_p_w
            slope = network * optics * (
                (gain + mu * dgain) * c + mu * gain * h * (1.0 - h) * no_click
            )
            step = mu - residual / slope
        # NaN fails both comparisons, so the 0/0 at pump 0 bisects too, and
        # so does a residual that did not change: the mean rounds flat there
        # (pump * Q underflows), where Newton steps would creep.
        step = np.where((lo < step) & (step < hi) & (residual != previous), step, mid)
        np.copyto(mu, step, where=moving)
        previous = residual


def make_multiplexed(
    stages,
    target_mean,
    herald_eff: float = DEFAULT_HERALD_EFF,
    stage_transmission: float = DEFAULT_STAGE_TRANSMISSION,
    optics_transmission: float = DEFAULT_OPTICS_TRANSMISSION,
):
    """Multiplexed source tuned to `target_mean` photons at the sample; an
    array of targets gives the array of their pumps as `pair_mean`.  A
    sequence of stage counts gives a list of such sources, one per count,
    all tuned in one `tune_pair_mean` call from their untuned networks."""
    calibration = (herald_eff, stage_transmission, optics_transmission)
    networks = [Multiplexed(m, 0.0, *calibration) for m in np.atleast_1d(stages).tolist()]
    pumps = tune_pair_mean(networks, target_mean)
    tuned = [replace(n, pair_mean=_scalar(mu)) for n, mu in zip(networks, pumps)]
    return tuned if np.ndim(stages) else tuned[0]


def source_pump(source: Source) -> float:
    """Pump strength `source` runs at: the coherent mean or the multiplexed
    pair mean.  A Fock state has no pump."""
    if isinstance(source, Coherent):
        return source.mean
    if isinstance(source, Multiplexed):
        return source.pair_mean
    raise TypeError(f"not a pump-driven source (coherent or multiplexed): {source!r}")


def _pumps(source: Source, mu) -> np.ndarray:
    """`mu`, or the source's own pump if it is None, as an array; TypeError
    for a source without a pump."""
    pump = source_pump(source)
    return np.asarray(pump if mu is None else mu, dtype=np.float64)


def _mux_pumps(source, mu, ndim: int = 0) -> tuple:
    """`_mux_constants` and pump array of one `Multiplexed` source, or of a
    list of them: `mu`, or the sources' own pumps stacked if it is None, on
    a leading network axis put ahead of at least `ndim` grid axes (length 1
    where the pumps have fewer), so that it lines up against a survival
    grid of `ndim` axes; the constants are columns along that axis."""
    if not isinstance(source, list):
        pumps = _pumps(source, mu)  # TypeError for a source without a pump
        return _mux_constants(source), pumps
    pumps = np.asarray([s.pair_mean for s in source] if mu is None else mu, dtype=np.float64)
    grid = pumps.shape[1:]
    pumps = pumps.reshape(pumps.shape[:1] + (1,) * (ndim - len(grid)) + grid)
    return _mux_constants(source, pumps.ndim - 1), pumps


def _scalar(value):
    """A 0-d result as a float, an array as it is."""
    return float(value) if np.ndim(value) == 0 else value


def source_moments(source: Source | list[Multiplexed], mu=None, ndim: int = 0) -> Moments:
    """Mean and variance at the sample plane, in closed form.

    `source` and `mu` are as for `source_click_probabilities`; given a pump
    array, or a source whose pump is an array, the mean and variance are
    arrays of its shape, behind the network axis of a list of sources,
    which goes ahead of at least `ndim` grid axes.
    """
    if isinstance(source, Fock) and mu is None:
        return Moments(mean=float(source.photons), variance=0.0)
    if isinstance(source, Coherent):
        pump = _pumps(source, mu)
        return Moments(mean=_scalar(pump), variance=_scalar(pump))
    mean, pairs = _mux_factorial_moments(*_mux_pumps(source, mu, ndim))
    return Moments(mean=_scalar(mean), variance=_scalar(pairs + mean - mean * mean))


def source_log_pgf(source: Source, x, mu=None) -> np.ndarray:
    """log G(1 + x), G the probability generating function of the photon
    number at the sample plane, at a real or complex array `x`, at the
    source's own pump or the float pump `mu`; a Fock state given a pump
    raises TypeError.

    Coherent: lambda x.  Fock: N log1p(x).  Multiplexed, with y = mu Q x
    and G as in `_mux_factorial_moments`: at a real x (`CHERNOFF_POINTS`),
    the logs of the two positive terms of G = 1 - P_sync + g e^y (1 -
    e^{-h (mu + y)}) are summed, which neither overflows nor cancels (the
    bracket form below overflows e^y past y ~ 709, and a row at mean 1e4
    then ends 2%, not 0.1%, past the Poisson walk at `ROW_TAIL` /
    2**stages).  At a complex x (the Fourier points of
    `montecarlo._total_count_pmf`) it is log1p(g [expm1(y) - e^{-mu h}
    expm1((1 - h) y)]).  Under a weak herald the two terms agree but for a
    part of relative size about mu h + h, so their difference keeps the
    rounding of phases of y up to ~1e2 radians: at herald 7e-11 the total
    of 200 repetitions had its mean 1.3e-8 and its variance 4.7e-8 low.
    So where mu h < 1 the bracket is formed as p_w expm1((1 - h) y) -
    e^y expm1(-h y), whose terms share no part (4e-10 and 1.5e-9 there);
    where mu h >= 1, e^{-h y} could overflow, and the first form does not
    cancel.
    """
    if isinstance(source, Fock) and mu is None:
        return source.photons * log1p(x)
    mu = float(_pumps(source, mu))
    if isinstance(source, Coherent):
        return mu * x
    h, _, _, network, optics = constants = _mux_constants(source)
    neg_p_w, no_click, _, gain = _herald(constants, mu)
    y = (mu * network * optics) * x
    if not np.iscomplexobj(y):
        # log(1 - P_sync) = -2**stages h mu; log 0 where no window heralds.
        with np.errstate(divide="ignore"):
            return np.logaddexp(constants[2] * mu, y + np.log(np.expm1(-h * (mu + y)) * -gain))
    if mu * h < 1.0:
        bracket = -neg_p_w * np.expm1((1.0 - h) * y) - np.exp(y) * np.expm1(-h * y)
    else:
        bracket = np.expm1(y) - no_click * np.expm1((1.0 - h) * y)
    return log1p(gain * bracket)


def _fock_clicks(photons: int, survival) -> tuple[np.ndarray, np.ndarray]:
    """(1 - s)^photons and 1 - (1 - s)^photons at each survival s of a
    float or an array, entry by entry with `math`, whose expm1 and log1p can
    differ from numpy's in the last place (they do on AVX-512 hosts)."""
    s = np.asarray(survival, dtype=np.float64)
    if photons == 0:
        return np.ones(s.shape), np.zeros(s.shape)
    logs = [-math.inf if x == 1.0 else photons * math.log1p(-x) for x in s.ravel().tolist()]
    return (np.reshape([math.exp(v) for v in logs], s.shape),
            np.reshape([-math.expm1(v) for v in logs], s.shape))


def source_click_probabilities(source: Source | list[Multiplexed], survival, mu=None):
    """Probabilities that no photon / at least one photon at the sample plane
    survives an independent per-photon thinning by `survival`, in closed
    form, each computed directly so that it keeps its precision where small.

    `survival` is a float or an array of them, and `mu` a pump value or an
    array of them (default: the source's own pump); the results have their
    broadcast shape (floats for a float survival and pump).  A list of
    `Multiplexed` sources, whose pumps share one shape, is evaluated in the
    same formulas with a leading network axis: the results have shape
    (networks,) + that broadcast shape, and a `mu` given for a list carries
    the network axis first.  A Fock state given a pump raises TypeError.
    """
    if isinstance(source, Fock) and mu is None:
        miss, p = _fock_clicks(source.photons, survival)
    elif isinstance(source, Coherent):
        # The coherent output mean is the pump itself.
        exponent = -survival * _pumps(source, mu)
        miss, p = np.exp(exponent), -np.expm1(exponent)
    else:
        miss, p = _mux_clicks(*_mux_pumps(source, mu, np.ndim(survival)), survival)
    return _scalar(miss), _scalar(p)


def count_window(logs: np.ndarray, nu: int) -> tuple[int, int]:
    """Counts (k0, top) with P(K < k0) and P(K >= top) each at most
    `ROW_TAIL`, K the sum of `nu` independent counts whose log E[(1 + d)^c]
    `logs` holds at the `CHERNOFF_POINTS` d, or at their first half only,
    which gives top alone and k0 = 0, where every count row starts.  The
    edges are the tightest Chernoff bounds P(K >= k) <= G(e^t)^nu e^{-t k}
    and P(K <= k) <= G(e^{-t})^nu e^{t k} over the points; a G(e^-t) that
    1 + (G - 1) no longer carries (`_CHERNOFF_MIN_LOG`) bounds nothing."""
    half = _CHERNOFF_UP.size
    edges = (nu * logs - math.log(ROW_TAIL)) / _CHERNOFF_EXPONENTS[: logs.size]
    # fmin and fmax pass over NaN.
    top = math.ceil(np.fmin.reduce(edges[:half]))
    if logs.size == half:
        return 0, top
    lower = edges[half:]
    lower[logs[half:] < _CHERNOFF_MIN_LOG] = np.nan
    return max(0, math.floor(np.fmax.reduce(lower))), top


class CountRows(NamedTuple):
    """Detected-count distribution of `source` after per-photon survival
    `survival`, in closed form, at any number of pump arrays: `length(mu)`
    gives the length of the rows at `mu` without building them, and
    `rows(mu, length)` builds them at `length` counts, by default
    `length(mu)`, `mu` as for `source_click_probabilities`.

    `length(mu)` is the upper edge `count_window` gives the count at the
    largest pump of `mu` (nu = 1), so that no row at `mu` discards more than
    `ROW_TAIL` beyond it, as the Monte Carlo totals' windows do; a Fock
    state keeps photons + 1, the length of its one row.  Rows built longer
    hold the rows of their own length as a prefix, bit for bit, so a caller
    may build rows at many pump arrays at one length.  The rows read the
    one log-factorial table of `pmf.log_factorials`, so a plan holds no
    state.
    """

    source: Source
    survival: float

    def length(self, mu=None) -> int:
        source = self.source
        if isinstance(source, Fock) and mu is None:
            return source.photons + 1
        logs = source_log_pgf(source, self.survival * _CHERNOFF_UP, _pumps(source, mu).max())
        return count_window(logs, 1)[1]

    def rows(self, mu=None, length: int | None = None) -> np.ndarray:
        if isinstance(self.source, Fock) and mu is None:
            return binomial_row(self.source.photons, self.survival)
        n_max = (self.length(mu) if length is None else length) - 1
        pumps = _pumps(self.source, mu)
        if isinstance(self.source, Coherent):
            return poisson_rows(self.survival * pumps, n_max)
        return _mux_output_rows(_mux_constants(self.source), pumps, self.survival, n_max)
