"""Sample transmission and detector response.

A measurement channel is the sample transmission followed by the detector
efficiency; both act as independent per-photon survival, so they enter as a
single thinning by t * eta.  Number-resolving detectors report the full
thinned photon count, threshold detectors only whether at least one photon
was detected.  Thinning maps the source moments to detected-count moments in
closed form (`nr_detected_moments`); the click probability is
`sources.source_click_probability` at survival t * eta.
"""

from __future__ import annotations

from dataclasses import dataclass

from subshot.pmf import Moments


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


def nr_detected_moments(source_moments: Moments, channel: Channel) -> Moments:
    """Detected-count moments for a number-resolving detector.

    Binomial thinning by s = t * eta: mean s * n, variance
    s^2 * Var(n) + s (1 - s) * mean(n).
    """
    s = channel.survival
    mean = s * source_moments.mean
    variance = s * s * source_moments.variance + s * (1.0 - s) * source_moments.mean
    return Moments(mean=mean, variance=variance)
