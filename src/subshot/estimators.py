"""Transmission estimators and their exact performance reports.

All estimators divide an aggregate count K (detected photons or detector
clicks over nu repetitions) by nu times a fluctuation-free per-repetition
reference:

    number-resolving:   T = K / (nu * eta * <n>)       (eta * N for Fock)
    threshold:          T = K / (nu * p0)              (eta * N for Fock)

where <n> is the source mean at the sample and p0 the click probability with
the sample removed (t = 1), computed analytically rather than measured.  The
aggregate-over-nu convention equals the mean of per-repetition estimates, so
variances shrink exactly as 1/nu.

Reports are exact: the expectation, bias, variance and MSE follow in closed
form from the source mean and variance (number-resolving) or the click
probability (threshold), with no distribution built and no sampling involved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from subshot.detection import Channel, nr_detected_moments
from subshot.sources import Coherent, Fock, Source, source_click_probability, source_moments


class Detector(enum.Enum):
    NUMBER_RESOLVING = "nr"
    THRESHOLD = "threshold"


def relative_mse_percent(mse: float, transmission: float) -> float | None:
    """Relative MSE in percent, 100 * sqrt(MSE) / t; None at t = 0 where it
    is undefined."""
    if transmission == 0.0:
        return None
    return 100.0 * math.sqrt(mse) / transmission


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator configuration: detector kind, source, repetitions and the
    per-repetition reference the counts are normalized by."""

    detector: Detector
    source: Source
    nu: int
    reference_mean: float

    def __post_init__(self):
        if self.nu != int(self.nu) or self.nu < 1:
            raise ValueError(f"nu must be an integer >= 1, got {self.nu}")
        if self.reference_mean <= 0:
            raise ValueError(f"reference_mean must be > 0, got {self.reference_mean}")


def reference_mean(source: Source, detector: Detector, detector_eff: float) -> float:
    """Fluctuation-free normalization constant of the estimator.

    Number-resolving: eta times the source mean at the sample.  Threshold:
    the exact click probability with the sample removed, except for the Fock
    source where the photon-number normalization eta * N is kept.
    """
    if detector is Detector.NUMBER_RESOLVING:
        return detector_eff * source_moments(source).mean
    if isinstance(source, Fock):
        return detector_eff * source.photons
    return source_click_probability(source, detector_eff)


def make_estimator_spec(
    source: Source, detector: Detector, detector_eff: float, nu: int
) -> EstimatorSpec:
    return EstimatorSpec(
        detector=detector,
        source=source,
        nu=nu,
        reference_mean=reference_mean(source, detector, detector_eff),
    )


@dataclass(frozen=True)
class EstimatorReport:
    """Exact performance of an estimator at one operating point."""

    detector: Detector
    transmission: float
    nu: int
    expectation: float
    bias: float
    variance: float
    mse: float
    relative_mse_percent: float | None
    ratio_to_snl: float | None = None

    def with_ratio(self, snl: "EstimatorReport") -> "EstimatorReport":
        return replace(self, ratio_to_snl=snl_ratio(self, snl))


def exact_report_nr(source: Source, channel: Channel, nu: int) -> EstimatorReport:
    """Exact report for a number-resolving detector.

    The estimator is linear in the counts, so E(T) = t (unbiased for every
    source) and Var(T) is the per-repetition detected-count variance divided
    by nu * reference^2.
    """
    ref = reference_mean(source, Detector.NUMBER_RESOLVING, channel.detector_eff)
    detected = nr_detected_moments(source_moments(source), channel)
    expectation = detected.mean / ref
    bias = expectation - channel.transmission
    variance = detected.variance / (nu * ref**2)
    mse = variance + bias**2
    return EstimatorReport(
        detector=Detector.NUMBER_RESOLVING,
        transmission=channel.transmission,
        nu=nu,
        expectation=expectation,
        bias=bias,
        variance=variance,
        mse=mse,
        relative_mse_percent=relative_mse_percent(mse, channel.transmission),
    )


def exact_report_threshold(source: Source, channel: Channel, nu: int) -> EstimatorReport:
    """Exact report for a threshold detector.

    The total click count is Binomial(nu, p(t)), so E(T) = p(t)/p0 and
    Var(T) = p(t)(1 - p(t)) / (nu * p0^2); the bias p(t)/p0 - t does not
    shrink with nu.
    """
    ref = reference_mean(source, Detector.THRESHOLD, channel.detector_eff)
    p_click = source_click_probability(source, channel.survival)
    expectation = p_click / ref
    bias = expectation - channel.transmission
    variance = p_click * (1.0 - p_click) / (nu * ref**2)
    mse = variance + bias**2
    return EstimatorReport(
        detector=Detector.THRESHOLD,
        transmission=channel.transmission,
        nu=nu,
        expectation=expectation,
        bias=bias,
        variance=variance,
        mse=mse,
        relative_mse_percent=relative_mse_percent(mse, channel.transmission),
    )


def exact_report(
    source: Source, detector: Detector, channel: Channel, nu: int
) -> EstimatorReport:
    if detector is Detector.NUMBER_RESOLVING:
        return exact_report_nr(source, channel, nu)
    return exact_report_threshold(source, channel, nu)


def snl_report(mean: float, channel: Channel, nu: int) -> EstimatorReport:
    """Shot-noise-limit reference: coherent source with number resolution."""
    return exact_report_nr(Coherent(mean), channel, nu)


def snl_ratio(report: EstimatorReport, snl: EstimatorReport) -> float | None:
    """MSE ratio reference/candidate; > 1 means sub-shot-noise performance.

    None when the reference MSE vanishes (t = 0), where the ratio is
    undefined.
    """
    if report.transmission != snl.transmission or report.nu != snl.nu:
        raise ValueError("reports must share the same transmission and nu")
    if snl.mse == 0.0:
        return None
    return snl.mse / report.mse


def asymptotic_relative_mse_floor(source: Source, channel: Channel) -> float | None:
    """Relative MSE [%] left in the infinite-repetition limit.

    For threshold detection the variance vanishes as 1/nu while the bias does
    not, so MSE -> bias^2 and the floor is 100 * |bias| / t.  None at t = 0.
    """
    if channel.transmission == 0.0:
        return None
    report = exact_report_threshold(source, channel, nu=1)
    return 100.0 * abs(report.bias) / channel.transmission
