"""Sample transmission and detector response.

A measurement channel is the sample transmission followed by the detector
efficiency; both act as independent per-photon survival, so they enter as a
single thinning by t * eta.  Number-resolving detectors report the full
thinned photon-count distribution, threshold detectors only whether at least
one photon was detected.  Thinning maps the source moments to detected-count
moments in closed form (`nr_detected_moments`); the distribution maps act on a
full `Pmf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subshot.pmf import Moments, Pmf, apply_loss


@dataclass(frozen=True)
class Channel:
    """Sample transmission (the estimand) and detector efficiency."""

    transmission: float
    detector_eff: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.transmission}")
        if not 0.0 <= self.detector_eff <= 1.0:
            raise ValueError(f"detector_eff must lie in [0, 1], got {self.detector_eff}")

    @property
    def survival(self) -> float:
        return self.transmission * self.detector_eff


def nr_detected_pmf(source_pmf: Pmf, channel: Channel) -> Pmf:
    """Detected photon-count distribution for a number-resolving detector."""
    return apply_loss(source_pmf, channel.survival)


def nr_detected_moments(source_moments: Moments, channel: Channel) -> Moments:
    """Detected-count moments for a number-resolving detector.

    Binomial thinning by s = t * eta: mean s * n, variance
    s^2 * Var(n) + s (1 - s) * mean(n).
    """
    s = channel.survival
    mean = s * source_moments.mean
    variance = s * s * source_moments.variance + s * (1.0 - s) * source_moments.mean
    return Moments(mean=mean, variance=variance, fano=variance / mean if mean > 0.0 else None)


def click_probability(source_pmf: Pmf, channel: Channel) -> float:
    """Probability that a threshold detector clicks on one trial.

    p = sum_{i>=1} [1 - (1 - t*eta)^i] * P(i): the source emits i photons and
    at least one of them is detected.
    """
    miss = 1.0 - channel.survival
    ns = np.arange(source_pmf.probs.size)
    if miss == 0.0:
        at_least_one = (ns > 0).astype(float)
    else:
        at_least_one = -np.expm1(ns * np.log(miss)) if miss < 1.0 else np.zeros_like(ns, dtype=float)
    return float(at_least_one @ source_pmf.probs)
