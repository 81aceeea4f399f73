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

The mean, variance and threshold click probability at the sample plane have
closed forms (`source_moments`, `source_click_probability`), and so does the
full photon-number distribution of the multiplexed source (`mux_output_rows`):
a vacuum term plus two Poissons.  Its rows are built only where a
distribution is sampled, by the Monte Carlo engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from subshot.pmf import Moments, poisson_rows, poisson_support

# Calibrated defaults: herald-arm detection probability per idler photon and
# signal transmission per delay stage.  Both are plain configuration values;
# no model logic depends on these particular numbers.
DEFAULT_HERALD_EFF = 0.9
DEFAULT_STAGE_TRANSMISSION = 0.88
DEFAULT_OPTICS_TRANSMISSION = 0.9


@dataclass(frozen=True)
class MuxParams:
    """Parameters of the time-multiplexed heralded single-photon source.

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
        if self.stages != int(self.stages) or self.stages < 1:
            raise ValueError(f"stages must be an integer >= 1, got {self.stages}")
        if self.pair_mean < 0:
            raise ValueError(f"pair_mean must be >= 0, got {self.pair_mean}")
        for name in ("herald_eff", "stage_transmission", "optics_transmission"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def window_count(self) -> int:
        return 2 ** int(self.stages)

    @property
    def network_transmission(self) -> float:
        return self.stage_transmission ** int(self.stages)


@dataclass(frozen=True)
class Coherent:
    """Coherent beam; `mean` is the mean photon number at the sample plane."""

    mean: float

    def __post_init__(self):
        if self.mean < 0:
            raise ValueError(f"coherent mean must be >= 0, got {self.mean}")


@dataclass(frozen=True)
class Fock:
    """Ideal number state with exactly `photons` photons, lossless delivery."""

    photons: int

    def __post_init__(self):
        if self.photons != int(self.photons) or self.photons < 0:
            raise ValueError(f"photons must be a non-negative integer, got {self.photons}")


@dataclass(frozen=True)
class Multiplexed:
    """Time-multiplexed heralded single-photon source."""

    params: MuxParams


Source = Coherent | Fock | Multiplexed


def sync_probability_at(params: MuxParams, mu):
    """Probability that any of the 2**stages windows heralds in a period, at
    pump `mu`, a float or an array of pump values.

    1 - (1 - p_w)^(2**stages) with 1 - p_w = exp(-mu * herald_eff), written so
    that it stays finite when p_w rounds to 1 under a strong pump.
    """
    return -np.expm1(-params.window_count * params.herald_eff * np.asarray(mu, dtype=np.float64))


def _mux_factorial_moments(params: MuxParams, mu: float) -> tuple[float, float]:
    """First and second factorial moments of the output at pump `mu`.

    Derivatives at s = 1 of the output generating function
    G(s) = 1 - P_sync + (P_sync/p_w) [e^{mu Q (s-1)} - e^{mu ((1-h)(1-Q+Qs) - 1)}]
    with h the herald efficiency and Q the network times optics transmission.
    The brackets 1 - (1-h)^k e^{-mu h} are expanded as p_w + (1 - (1-h)^k) e^{-mu h}
    so that no cancellation occurs at weak pump.
    """
    h = params.herald_eff
    p_w = -math.expm1(-mu * h)
    if p_w == 0.0:
        return 0.0, 0.0
    # Scalar copy of `_sync_gain`: pump tuning evaluates the mean ~40 times
    # per tuning, and the array version costs ~3x as much per call.
    gain = float(sync_probability_at(params, mu)) / p_w
    mq = mu * params.network_transmission * params.optics_transmission
    no_click = math.exp(-mu * h)
    return (
        gain * mq * (p_w + h * no_click),
        gain * mq * mq * (p_w + h * (2.0 - h) * no_click),
    )


def _sync_gain(params: MuxParams, mu: np.ndarray) -> np.ndarray:
    """P_sync / p_w at an array of pump values, 0 where p_w is 0."""
    p_w = -np.expm1(-mu * params.herald_eff)
    return np.divide(sync_probability_at(params, mu), p_w, out=np.zeros_like(p_w), where=p_w > 0.0)


def mux_click_probability(params: MuxParams, mu, survival: float):
    """Probability that at least one output photon survives thinning by `survival`.

    1 - G(1 - survival) of the output generating function at pump `mu`:
    (P_sync/p_w) [1 - e^{-mu Q s} + e^{-mu h} (e^{-mu (1-h) Q s} - 1)], exactly 0
    at survival 0.  `mu` may be an array of pump values; the result has its
    shape.  The `pair_mean` field of `params` is ignored.
    """
    mu = np.asarray(mu, dtype=np.float64)
    h = params.herald_eff
    q = mu * (params.network_transmission * params.optics_transmission * survival)
    return _sync_gain(params, mu) * (-np.expm1(-q) + np.exp(-mu * h) * np.expm1(-(1.0 - h) * q))


def mux_output_rows(params: MuxParams, mu, survival: float, tail: float):
    """Output photon-number distribution after a further thinning by `survival`.

    With q = network * optics * survival, h the herald efficiency and
    g = P_sync/p_w, the heralded window emits Poisson(mu) pairs weighted by the
    herald probability and is thinned by q, which leaves two Poissons:

        P(n) = (1 - P_sync) [n = 0] + g Pois(n; mu q) [1 - (1-h)^n e^{-mu h (1-q)}]

    `mu` is a float or an array of pump values; the result has shape
    `np.shape(mu) + (n_max + 1,)`, with one n_max for all rows chosen so that
    no row discards more than `tail` beyond it.  The `pair_mean` field of
    `params` is ignored.
    """
    mu = np.asarray(mu, dtype=np.float64)
    h = params.herald_eff
    q = params.network_transmission * params.optics_transmission * survival
    p_sync = sync_probability_at(params, mu)
    # A row's tail is g <= 2**stages times the Poisson(mu q) tail.
    n_max = poisson_support(float(np.max(mu)) * q, max(tail / params.window_count, 1e-300))
    ns = np.arange(n_max + 1)
    if h < 1.0:
        log_miss = ns * math.log1p(-h)
    else:
        log_miss = np.where(ns == 0, 0.0, -np.inf)
    # 1 - (1-h)^n e^{-mu h (1-q)} without cancellation: >= 0 and finite at h = 1.
    herald = -np.expm1(log_miss - (mu * (h * (1.0 - q)))[..., None])
    rows = _sync_gain(params, mu)[..., None] * poisson_rows(mu * q, n_max) * herald
    rows[..., 0] += 1.0 - p_sync
    return rows


def unreachable_field(params: MuxParams) -> str | None:
    """Name of a zero herald efficiency, stage transmission or optics
    transmission, or None.

    The output mean grows without bound with the pump unless one of these is
    zero, in which case the output is vacuum at every pump strength and no
    positive target mean can be reached.
    """
    for name in ("herald_eff", "stage_transmission", "optics_transmission"):
        if getattr(params, name) == 0.0:
            return name
    return None


def tune_pair_mean(
    params: MuxParams,
    target_mean: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Pump strength whose output mean at the sample equals `target_mean`.

    The closed-form output mean is continuous and strictly increasing in the
    pair mean and grows like pair_mean * Q without bound, so plain bisection
    converges; it stops once the mean residual drops below `tol`.  Every
    target is reachable unless `unreachable_field` names a zero field.  The
    `pair_mean` field of `params` is ignored.
    """
    if target_mean <= 0:
        raise ValueError(f"target mean must be > 0, got {target_mean}")
    name = unreachable_field(params)
    if name is not None:
        raise ValueError(
            f"{name} is 0, so the output is vacuum at every pump strength: "
            f"target mean {target_mean} is unreachable"
        )

    def mean_at(mu: float) -> float:
        return _mux_factorial_moments(params, mu)[0]

    lo, hi = 0.0, max(1.0, target_mean)
    for _ in range(200):
        if mean_at(hi) >= target_mean:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError(f"could not bracket target mean {target_mean}")

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        residual = mean_at(mid) - target_mean
        if abs(residual) < tol:
            return mid
        if residual < 0:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"pump tuning did not reach residual {tol} within {max_iter} bisection steps"
    )


def make_multiplexed(
    stages: int,
    target_mean: float,
    herald_eff: float = DEFAULT_HERALD_EFF,
    stage_transmission: float = DEFAULT_STAGE_TRANSMISSION,
    optics_transmission: float = DEFAULT_OPTICS_TRANSMISSION,
) -> Multiplexed:
    """Multiplexed source tuned to `target_mean` photons at the sample."""
    params = MuxParams(
        stages=stages,
        pair_mean=0.0,
        herald_eff=herald_eff,
        stage_transmission=stage_transmission,
        optics_transmission=optics_transmission,
    )
    return Multiplexed(replace(params, pair_mean=tune_pair_mean(params, target_mean)))


def source_moments(source: Source) -> Moments:
    """Mean, variance and Fano factor at the sample plane, in closed form."""
    if isinstance(source, Coherent):
        mean = variance = float(source.mean)
    elif isinstance(source, Fock):
        mean, variance = float(source.photons), 0.0
    elif isinstance(source, Multiplexed):
        mean, pairs = _mux_factorial_moments(source.params, source.params.pair_mean)
        variance = pairs + mean - mean * mean
    else:
        raise TypeError(f"unknown source kind: {source!r}")
    return Moments(mean=mean, variance=variance, fano=variance / mean if mean > 0.0 else None)


def source_click_probability(source: Source, survival: float) -> float:
    """Probability that at least one photon at the sample plane survives an
    independent per-photon thinning by `survival`, in closed form."""
    if isinstance(source, Coherent):
        return -math.expm1(-source.mean * survival)
    if isinstance(source, Fock):
        if source.photons == 0:
            return 0.0
        return 1.0 if survival == 1.0 else -math.expm1(source.photons * math.log1p(-survival))
    if isinstance(source, Multiplexed):
        return float(mux_click_probability(source.params, source.params.pair_mean, survival))
    raise TypeError(f"unknown source kind: {source!r}")
