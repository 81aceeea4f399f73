"""Sample transmission and detector response.

A measurement channel is the sample transmission followed by the detector
efficiency; both act as independent per-photon survival, so they enter as a
single thinning by t * eta.  Number-resolving detectors report the full
thinned photon count, threshold detectors only whether at least one photon
was detected.  This is the only module that knows how a detector turns the
photons of one repetition into its count: `detected_moments` gives the count's
mean and variance and `detected_row_plan` its distribution (rows at any
number of pump arrays, sized without building them), both from the closed
forms of `sources` and both for a pump array as well as the source's own
pump, and `detected_log_pgf` the log of its generating function, so the
exact reports and the Monte Carlo engine never branch on the detector.
`detected_moments` also takes an array of survivals, which a
`Channel` carrying a whole transmission grid gives, as it takes a pump array,
and a list of multiplexed sources, the networks of a run, which it evaluates
at once on a leading network axis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from subshot.pmf import Moments, log1p
from subshot.sources import CountRows, Multiplexed, Source, check_range
from subshot.sources import source_click_probabilities, source_log_pgf, source_moments


class Detector(enum.Enum):
    NUMBER_RESOLVING = "nr"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class Channel:
    """Sample transmission (the estimand) and detector efficiency.

    The transmission is a float or an array of them (a transmission grid);
    every closed form evaluates an array entry by entry, as it does a float.
    """

    transmission: float | np.ndarray
    detector_eff: float = 0.9

    def __post_init__(self):
        check_range("transmission", self.transmission)
        check_range("detector_eff", self.detector_eff)

    @property
    def survival(self) -> float | np.ndarray:
        return self.transmission * self.detector_eff


def detected_moments(source: Source | list[Multiplexed], detector: Detector, survival,
                     mu=None) -> Moments:
    """Mean and variance of one repetition's count after per-photon survival
    `survival`.

    Number-resolving: binomial thinning of the source photons, mean s * <n>
    and variance s^2 * Var(n) + s (1 - s) * <n>.  Threshold: a Bernoulli
    click, mean p and variance p (1 - p), with 1 - p the no-click
    probability computed directly, so that the variance keeps its relative
    precision where clicks are all but certain.  `survival` and `mu` are as
    for `sources.source_click_probabilities`: given a survival array or a
    pump array, mean and variance are arrays of its shape, and given a list
    of `Multiplexed` sources, of shape (networks,) + that shape.
    """
    if detector is Detector.THRESHOLD:
        miss, p = source_click_probabilities(source, survival, mu)
        return Moments(mean=p, variance=p * miss)
    n = source_moments(source, mu, np.ndim(survival))
    s = survival
    return Moments(mean=s * n.mean, variance=s * s * n.variance + s * (1.0 - s) * n.mean)


def detected_log_pgf(source: Source, detector: Detector, survival: float, d) -> np.ndarray:
    """log E[(1 + d)^K] of one repetition's count K after per-photon
    survival `survival`, at a real or complex array `d`, for a source whose
    pump is a float.  Number-resolving: the thinning maps 1 + d to 1 + s d
    in the photon number's generating function (`sources.source_log_pgf`).
    Threshold: log1p(p d), p the click probability."""
    if detector is Detector.THRESHOLD:
        return log1p(source_click_probabilities(source, survival)[1] * d)
    return source_log_pgf(source, survival * d)


class _ClickRows(NamedTuple):
    """A threshold detector's click rows [1 - p, p] behind the interface of
    `sources.CountRows`; every length is 2, so `rows` ignores `length`."""

    source: Source
    survival: float

    def length(self, mu=None) -> int:
        return 2

    def rows(self, mu=None, length: int | None = None) -> np.ndarray:
        return np.stack(source_click_probabilities(self.source, self.survival, mu), axis=-1)


def detected_row_plan(source: Source, detector: Detector, survival: float):
    """Distribution of one repetition's count after per-photon survival
    `survival`, at any number of pump arrays: the thinned photon-number rows
    of a `sources.CountRows` plan, or the click row [1 - p, p] of a
    `_ClickRows` plan, which takes the same arguments.

    The plan's `rows(mu, length)` gives the rows at `mu`, as for
    `sources.source_click_probabilities`, with shape
    `np.shape(mu) + (count length,)`; its `length(mu)` gives the count length
    without building them, which `rows` builds at unless given a `length`.
    """
    return (_ClickRows if detector is Detector.THRESHOLD else CountRows)(source, survival)
