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
form from the mean and variance of one repetition's count
(`detection.detected_moments`), with no distribution built and no sampling
involved, and the same code serves both detectors.  A `Channel` whose
transmission is an array (a transmission grid), and a source whose pump is
an array (a mean grid), are evaluated by the same code entry by entry: every
report field is then an array, and a quantity that is undefined at an entry
is None there.  A list of multiplexed sources (the networks of a run) is one
more axis of the same code: every report field then has a leading network
axis, ahead of the grid's axes, and entry i is the report of network i.
`montecarlo.mc_estimate` samples the same estimator from the same arguments
plus a trial count and a seed; both normalize by `reference_mean`.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from subshot.detection import Channel, Detector, detected_moments
from subshot.sources import Coherent, Fock, Multiplexed, Source


def _quotient(numerator, denominator, undefined):
    """numerator / denominator, None where `undefined` holds: a float or None
    for float arguments, an object array of floats and None for arrays.
    Undefined entries are divided by denominator + 1 instead, so that no
    entry divides by 0."""
    return np.where(undefined, None, numerator / (denominator + undefined))[()]


def relative_mse_percent(mse, transmission):
    """Relative MSE in percent, 100 * sqrt(MSE) / t; None at t = 0 where it
    is undefined."""
    return _quotient(100.0 * np.sqrt(mse), transmission, transmission == 0.0)


def reference_mean(source: Source | list[Multiplexed], detector: Detector, detector_eff):
    """Fluctuation-free normalization constant of the estimator, an array of
    them for a source whose pump is an array or a list of networks.

    The mean detected count with the sample removed (survival eta, a float
    or an array of them): eta times the source mean at the sample
    (number-resolving) or the click probability (threshold), except for
    the Fock source under threshold detection, where the photon-number
    normalization eta * N is kept.  The reports divide by
    nu * reference**2, so a reference whose square is not a normal float
    raises ValueError: a vacuum source, a blind detector, or a reference
    below ~1e-154 or above ~1e154.
    """
    if detector is Detector.THRESHOLD and isinstance(source, Fock):
        ref = detector_eff * source.photons
    else:
        ref = detected_moments(source, detector, detector_eff).mean
    with np.errstate(over="ignore"):
        square = np.square(ref)
    bad = ~((ref > 0.0) & (square >= sys.float_info.min) & (square < np.inf))
    if bad.any():
        first = np.asarray(ref)[bad][0]
        raise ValueError(f"reference must be > 0 with a normal square, got {first}")
    return ref


class EstimatorReport(NamedTuple):
    """Exact performance of an estimator at one operating point, or at each
    point of a transmission or mean grid (every field but `nu` and, for a
    mean grid, `transmission` then an array)."""

    transmission: float | np.ndarray
    nu: int
    expectation: float | np.ndarray
    bias: float | np.ndarray
    variance: float | np.ndarray
    mse: float | np.ndarray
    relative_mse_percent: float | None | np.ndarray


def exact_report(source: Source | list[Multiplexed], detector: Detector, channel: Channel,
                 nu: int) -> EstimatorReport:
    """Exact report of the estimator at the transmission of `channel` and
    the pump of `source`, or at each entry of a grid of either, and for each
    network of a list of `Multiplexed` sources along a leading axis.

    The estimator is linear in the counts, so E(T) is the mean of one
    repetition's detected count over the reference and Var(T) its variance
    over nu * reference^2.  Number-resolving, E(T) = t for every source;
    threshold, E(T) = p(t) / p0, whose bias against the true transmission
    does not shrink with nu.
    """
    # The reference at the detector efficiency, on as many (length-1) axes
    # as the transmission grid, so that its network axis lines up as that of
    # the moments over the grid does.
    eta = channel.detector_eff
    if np.ndim(channel.transmission):
        eta = np.full((1,) * np.ndim(channel.transmission), eta)
    ref = reference_mean(source, detector, eta)
    detected = detected_moments(source, detector, channel.survival)
    expectation = detected.mean / ref
    variance = detected.variance / (nu * ref**2)
    bias = expectation - channel.transmission
    mse = variance + bias * bias
    return EstimatorReport(
        transmission=channel.transmission,
        nu=nu,
        expectation=expectation,
        bias=bias,
        variance=variance,
        mse=mse,
        relative_mse_percent=relative_mse_percent(mse, channel.transmission),
    )


def snl_report(mean, channel: Channel, nu: int) -> EstimatorReport:
    """Shot-noise-limit reference: coherent source with number resolution,
    at a mean photon number or an array of them."""
    return exact_report(Coherent(mean), Detector.NUMBER_RESOLVING, channel, nu)


def snl_ratio(report: EstimatorReport, snl: EstimatorReport) -> float | None:
    """MSE ratio reference/candidate; > 1 means sub-shot-noise performance.

    None when the reference MSE vanishes (t = 0), where the ratio is
    undefined, and when the candidate MSE vanishes (a Fock state at t = 1
    through a perfect detector), where it is unbounded.  Over a grid, entry
    by entry.
    """
    if not np.array_equal(report.transmission, snl.transmission) or report.nu != snl.nu:
        raise ValueError("reports must share the same transmission and nu")
    return _quotient(snl.mse, report.mse, (snl.mse == 0.0) | (report.mse == 0.0))


def asymptotic_relative_mse_floor(source: Source | list[Multiplexed], channel: Channel):
    """Relative MSE [%] left in the infinite-repetition limit.

    For threshold detection the variance vanishes as 1/nu while the bias does
    not, so MSE -> bias^2 and the floor is 100 * |bias| / t.  None at t = 0.
    """
    t = channel.transmission
    bias = exact_report(source, Detector.THRESHOLD, channel, nu=1).bias
    return _quotient(100.0 * abs(bias), t, t == 0.0)
