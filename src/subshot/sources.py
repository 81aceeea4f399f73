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
(`tune_pair_mean`).

No other module knows how a source kind is evaluated.  The mean, variance
and click probability at the sample plane (`source_moments`,
`source_click_probability`) and the detected-count distribution
(`source_count_rows`: Poisson, Binomial, or a vacuum term plus two Poissons)
are closed forms.  Each also takes an array of pumps in place of the
source's own (`source_pump`), as the Monte Carlo fluctuation rounds and the
pump averages of `montecarlo.fluctuation_mse` need, and the click
probability takes an array of survivals in the same way, as the exact
reports over a transmission grid need.

Each source constructor checks its own fields, as `detection.Channel` and
`montecarlo.FluctuationConfig` do theirs, and raises the `ConfigError`
defined here, naming the field; `check_count` and `check_fraction` are the
count and [0, 1] rules they share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from subshot.pmf import Moments, binomial_row, poisson_rows, poisson_support

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


def check_fraction(field: str, value) -> None:
    """ConfigError naming `field` unless `value`, a float or an array of
    them, lies in [0, 1] everywhere.  A float is checked without numpy:
    intensity-sweep builds ~700 sources a pass."""
    for v in value.ravel().tolist() if isinstance(value, np.ndarray) else (value,):
        if not 0.0 <= v <= 1.0:
            raise ConfigError(field, f"must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class Coherent:
    """Coherent beam; `mean` is the mean photon number at the sample plane."""

    mean: float

    def __post_init__(self):
        if not self.mean >= 0:
            raise ConfigError("mean", f"must be >= 0, got {self.mean}")


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
    pair_mean: mean photon-pair number per temporal window.
    herald_eff: probability that an idler photon produces a herald click.
    stage_transmission: signal transmission of one delay stage; the signal
        crosses every stage (delay or bypass), so the network transmission is
        stage_transmission**stages.
    optics_transmission: source-to-sample optical transmission.
    """

    stages: int
    pair_mean: float
    herald_eff: float = DEFAULT_HERALD_EFF
    stage_transmission: float = DEFAULT_STAGE_TRANSMISSION
    optics_transmission: float = DEFAULT_OPTICS_TRANSMISSION

    def __post_init__(self):
        object.__setattr__(self, "stages", check_count("stages", self.stages, 1))
        if self.stages > MAX_STAGES:
            raise ConfigError("stages", f"must be <= {MAX_STAGES}, got {self.stages}")
        if not self.pair_mean >= 0:
            raise ConfigError("pair_mean", f"must be >= 0, got {self.pair_mean}")
        for name in ("herald_eff", "stage_transmission", "optics_transmission"):
            check_fraction(name, getattr(self, name))

    @property
    def window_count(self) -> int:
        return 2**self.stages

    @property
    def network_transmission(self) -> float:
        return self.stage_transmission**self.stages


Source = Coherent | Fock | Multiplexed


def sync_probability_at(source: Multiplexed, mu):
    """Probability that any of the 2**stages windows heralds in a period, at
    pump `mu`, a float or an array of pump values.

    1 - (1 - p_w)^(2**stages) with 1 - p_w = exp(-mu * herald_eff), written so
    that it stays finite when p_w rounds to 1 under a strong pump.
    """
    return -np.expm1(-source.window_count * source.herald_eff * np.asarray(mu, dtype=np.float64))


def _mux_factorial_moments(source: Multiplexed, mu):
    """First and second factorial moments of the output at pump `mu`, a
    float or an array of pump values.

    Derivatives at s = 1 of the output generating function
    G(s) = 1 - P_sync + (P_sync/p_w) [e^{mu Q (s-1)} - e^{mu ((1-h)(1-Q+Qs) - 1)}]
    with h the herald efficiency and Q the network times optics transmission.
    The brackets 1 - (1-h)^k e^{-mu h} are expanded as p_w + (1 - (1-h)^k) e^{-mu h}
    so that no cancellation occurs at weak pump.
    """
    h = source.herald_eff
    if isinstance(mu, np.ndarray):
        p_w, gain, no_click = -np.expm1(-mu * h), _sync_gain(source, mu), np.exp(-mu * h)
    else:
        # Scalar path: pump tuning evaluates the mean ~40 times per tuning,
        # and the array path costs ~3x as much per call.
        p_w = -math.expm1(-mu * h)
        if p_w == 0.0:
            return 0.0, 0.0
        gain = float(sync_probability_at(source, mu)) / p_w
        no_click = math.exp(-mu * h)
    mq = mu * source.network_transmission * source.optics_transmission
    return (
        gain * mq * (p_w + h * no_click),
        gain * mq * mq * (p_w + h * (2.0 - h) * no_click),
    )


def _sync_gain(source: Multiplexed, mu: np.ndarray) -> np.ndarray:
    """P_sync / p_w at an array of pump values, 0 where p_w is 0."""
    p_w = -np.expm1(-mu * source.herald_eff)
    return np.divide(sync_probability_at(source, mu), p_w, out=np.zeros_like(p_w), where=p_w > 0.0)


def _mux_click_probability(source: Multiplexed, mu, survival):
    """Probability that at least one output photon survives thinning by `survival`.

    1 - G(1 - survival) of the output generating function at pump `mu`:
    (P_sync/p_w) [1 - e^{-mu Q s} + e^{-mu h} (e^{-mu (1-h) Q s} - 1)], exactly 0
    at survival 0, evaluated as p_w (1 - e^{-y}) + e^{-y} (1 - e^{-mu h Q s}) with
    y = mu (1-h) Q s: no cancellation when a weak herald needs a huge pump.
    `mu` is an array of pump values and `survival` a float or an array; the
    result has their broadcast shape.  The `pair_mean` field of `source` is
    ignored.
    """
    h = source.herald_eff
    x = mu * (source.network_transmission * source.optics_transmission * survival)
    y = (1.0 - h) * x
    return _sync_gain(source, mu) * (np.expm1(-mu * h) * np.expm1(-y) - np.exp(-y) * np.expm1(-h * x))


def _mux_output_rows(source: Multiplexed, mu, survival: float, tail: float):
    """Output photon-number distribution after a further thinning by `survival`.

    With q = network * optics * survival, h the herald efficiency and
    g = P_sync/p_w, the heralded window emits Poisson(mu) pairs weighted by the
    herald probability and is thinned by q, which leaves two Poissons:

        P(n) = (1 - P_sync) [n = 0] + g Pois(n; mu q) [1 - (1-h)^n e^{-mu h (1-q)}]

    `mu` is an array of pump values; the result has shape
    `mu.shape + (n_max + 1,)`, with one n_max for all rows chosen so that no
    row discards more than `tail` beyond it.  The `pair_mean` field of
    `source` is ignored.
    """
    h = source.herald_eff
    q = source.network_transmission * source.optics_transmission * survival
    p_sync = sync_probability_at(source, mu)
    # A row's tail is g <= 2**stages times the Poisson(mu q) tail.
    n_max = poisson_support(float(np.max(mu)) * q, max(tail / source.window_count, 1e-300))
    ns = np.arange(n_max + 1)
    if h < 1.0:
        log_miss = ns * math.log1p(-h)
    else:
        log_miss = np.where(ns == 0, 0.0, -np.inf)
    # 1 - (1-h)^n e^{-mu h (1-q)} without cancellation: >= 0 and finite at h = 1.
    herald = -np.expm1(log_miss - (mu * (h * (1.0 - q)))[..., None])
    rows = _sync_gain(source, mu)[..., None] * poisson_rows(mu * q, n_max) * herald
    rows[..., 0] += 1.0 - p_sync
    return rows


def unreachable_field(source: Multiplexed) -> str | None:
    """Name of a zero herald efficiency, stage transmission or optics
    transmission, or None.

    The output mean grows without bound with the pump unless one of these is
    zero, in which case the output is vacuum at every pump strength and no
    positive target mean can be reached.
    """
    for name in ("herald_eff", "stage_transmission", "optics_transmission"):
        if getattr(source, name) == 0.0:
            return name
    return None


def tune_pair_mean(source: Multiplexed, target_mean: float, tol: float = 1e-10) -> float:
    """Pump strength whose output mean at the sample equals `target_mean`.

    The closed-form output mean is continuous and strictly increasing in the
    pair mean and grows like pair_mean * Q without bound, so plain bisection
    converges; it stops once the mean residual drops below `tol` times
    min(1, target), so tiny targets are met to relative precision, or the
    bracket shrinks to adjacent floats, where a large mean cannot get closer.
    Every target is reachable below MAX_PUMP unless `unreachable_field` names
    a zero field or the network transmits too little.  The `pair_mean` field
    of `source` is ignored.
    """
    if target_mean <= 0:
        raise ValueError(f"target mean must be > 0, got {target_mean}")
    name = unreachable_field(source)
    if name is not None:
        raise ValueError(
            f"{name} is 0, so the output is vacuum at every pump strength: "
            f"target mean {target_mean} is unreachable"
        )

    def mean_at(mu: float) -> float:
        return _mux_factorial_moments(source, mu)[0]

    stop = tol * min(1.0, target_mean)
    lo, hi = 0.0, max(1.0, target_mean)
    while mean_at(hi) < target_mean:
        if hi > MAX_PUMP:
            raise ValueError(f"target mean {target_mean} needs a pump above {MAX_PUMP:g}")
        lo, hi = hi, 2.0 * hi

    while True:
        mid = 0.5 * (lo + hi)
        residual = mean_at(mid) - target_mean
        if abs(residual) < stop or mid in (lo, hi):
            return mid
        if residual < 0:
            lo = mid
        else:
            hi = mid


def make_multiplexed(
    stages: int,
    target_mean: float,
    herald_eff: float = DEFAULT_HERALD_EFF,
    stage_transmission: float = DEFAULT_STAGE_TRANSMISSION,
    optics_transmission: float = DEFAULT_OPTICS_TRANSMISSION,
) -> Multiplexed:
    """Multiplexed source tuned to `target_mean` photons at the sample."""
    src = Multiplexed(stages, 0.0, herald_eff, stage_transmission, optics_transmission)
    return replace(src, pair_mean=tune_pair_mean(src, target_mean))


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


def source_moments(source: Source, mu=None) -> Moments:
    """Mean and variance at the sample plane, in closed form.

    `mu` is as for `source_click_probability`; given one, the mean and
    variance are arrays of its shape.
    """
    if isinstance(source, Fock) and mu is None:
        return Moments(mean=float(source.photons), variance=0.0)
    pump = float(source_pump(source)) if mu is None else _pumps(source, mu)
    if isinstance(source, Coherent):
        return Moments(mean=pump, variance=pump)
    mean, pairs = _mux_factorial_moments(source, pump)
    return Moments(mean=mean, variance=pairs + mean - mean * mean)


def _fock_click_probability(photons: int, survival) -> np.ndarray:
    """1 - (1 - s)^photons at each survival s of a float or an array.

    Evaluated entry by entry with `math`, whose expm1 and log1p can differ
    from numpy's in the last place (they do on AVX-512 hosts), so that a grid
    entry equals the float evaluation at the same survival.
    """
    s = np.asarray(survival, dtype=np.float64)
    if photons == 0:
        return np.zeros(s.shape)
    clicks = [1.0 if x == 1.0 else -math.expm1(photons * math.log1p(-x)) for x in s.ravel().tolist()]
    return np.reshape(clicks, s.shape)


def source_click_probability(source: Source, survival, mu=None):
    """Probability that at least one photon at the sample plane survives an
    independent per-photon thinning by `survival`, in closed form.

    `survival` is a float or an array of them, and `mu` a pump value or an
    array of them (default: the source's own pump); the result has their
    broadcast shape, and is a float when neither is an array.  A Fock state
    given a pump raises TypeError.
    """
    if isinstance(source, Fock) and mu is None:
        p = _fock_click_probability(source.photons, survival)
    elif isinstance(source, Coherent):
        # The coherent output mean is the pump itself.
        p = -np.expm1(-survival * _pumps(source, mu))
    else:
        p = _mux_click_probability(source, _pumps(source, mu), survival)
    return float(p) if mu is None and p.ndim == 0 else p


def source_count_rows(source: Source, survival: float, tail: float, mu=None) -> np.ndarray:
    """Detected-count distribution of `source` after per-photon survival
    `survival`, in closed form.

    `mu` is as for `source_click_probability`.  The result has shape
    `np.shape(mu) + (n_max + 1,)`, with one n_max for all rows chosen so that
    no row discards more than `tail` beyond it.
    """
    if isinstance(source, Fock) and mu is None:
        return binomial_row(source.photons, survival)
    pumps = _pumps(source, mu)
    if isinstance(source, Coherent):
        lam = survival * pumps
        return poisson_rows(lam, poisson_support(float(lam.max()), tail))
    return _mux_output_rows(source, pumps, survival, tail)
