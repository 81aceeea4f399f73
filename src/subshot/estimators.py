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
`montecarlo.mc_estimate` samples the same estimator from the same arguments
plus a trial count and a seed; both normalize by `reference_mean`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def reference_mean(source: Source, detector: Detector, detector_eff: float) -> float:
    """Fluctuation-free normalization constant of the estimator.

    Number-resolving: eta times the source mean at the sample.  Threshold:
    the exact click probability with the sample removed, except for the Fock
    source where the photon-number normalization eta * N is kept.  Every
    estimate divides by it, so a reference that is not > 0 (a vacuum source
    or a blind detector) raises ValueError.
    """
    if detector is Detector.NUMBER_RESOLVING:
        ref = detector_eff * source_moments(source).mean
    elif isinstance(source, Fock):
        ref = detector_eff * source.photons
    else:
        ref = source_click_probability(source, detector_eff)
    if not ref > 0.0:
        raise ValueError(f"reference must be > 0, got {ref} (vacuum source or blind detector)")
    return ref


@dataclass(frozen=True)
class EstimatorReport:
    """Exact performance of an estimator at one operating point."""

    transmission: float
    nu: int
    expectation: float
    bias: float
    variance: float
    mse: float
    relative_mse_percent: float | None


def _report(channel: Channel, nu: int, expectation: float, variance: float) -> EstimatorReport:
    """Report from the estimator's expectation and variance; the bias is
    measured against the true transmission."""
    bias = expectation - channel.transmission
    mse = variance + bias**2
    return EstimatorReport(
        transmission=channel.transmission,
        nu=nu,
        expectation=expectation,
        bias=bias,
        variance=variance,
        mse=mse,
        relative_mse_percent=relative_mse_percent(mse, channel.transmission),
    )


def exact_report_nr(source: Source, channel: Channel, nu: int) -> EstimatorReport:
    """Exact report for a number-resolving detector.

    The estimator is linear in the counts, so E(T) = t (unbiased for every
    source) and Var(T) is the per-repetition detected-count variance divided
    by nu * reference^2.
    """
    ref = reference_mean(source, Detector.NUMBER_RESOLVING, channel.detector_eff)
    detected = nr_detected_moments(source_moments(source), channel)
    variance = detected.variance / (nu * ref**2)
    return _report(channel, nu, detected.mean / ref, variance)


def exact_report_threshold(source: Source, channel: Channel, nu: int) -> EstimatorReport:
    """Exact report for a threshold detector.

    The total click count is Binomial(nu, p(t)), so E(T) = p(t)/p0 and
    Var(T) = p(t)(1 - p(t)) / (nu * p0^2); the bias p(t)/p0 - t does not
    shrink with nu.
    """
    ref = reference_mean(source, Detector.THRESHOLD, channel.detector_eff)
    p_click = source_click_probability(source, channel.survival)
    variance = p_click * (1.0 - p_click) / (nu * ref**2)
    return _report(channel, nu, p_click / ref, variance)


def exact_report(source: Source, detector: Detector, channel: Channel, nu: int) -> EstimatorReport:
    if detector is Detector.NUMBER_RESOLVING:
        return exact_report_nr(source, channel, nu)
    return exact_report_threshold(source, channel, nu)


def snl_report(mean: float, channel: Channel, nu: int) -> EstimatorReport:
    """Shot-noise-limit reference: coherent source with number resolution."""
    return exact_report_nr(Coherent(mean), channel, nu)


def snl_ratio(report: EstimatorReport, snl: EstimatorReport) -> float | None:
    """MSE ratio reference/candidate; > 1 means sub-shot-noise performance.

    None when the reference MSE vanishes (t = 0), where the ratio is
    undefined, and when the candidate MSE vanishes (a Fock state at t = 1
    through a perfect detector), where it is unbounded.
    """
    if report.transmission != snl.transmission or report.nu != snl.nu:
        raise ValueError("reports must share the same transmission and nu")
    if snl.mse == 0.0 or report.mse == 0.0:
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
