"""Estimator arithmetic and exact performance reports, checked against the
closed forms they must reproduce (Poisson and binomial count statistics)."""

import math

import numpy as np
import pytest

from subshot.detection import Channel
from subshot.estimators import (
    Detector,
    asymptotic_relative_mse_floor,
    exact_report,
    reference_mean,
    relative_mse_percent,
    snl_ratio,
    snl_report,
)
from subshot.sources import Coherent, Fock, make_multiplexed

T_GRID = np.linspace(0.0, 1.0, 101)


class TestEstimateArithmetic:
    def test_threshold_normalization_uses_reference_click_probability(self):
        p0 = -math.expm1(-0.9)
        ref = reference_mean(Coherent(1.0), Detector.THRESHOLD, 0.9)
        assert ref == pytest.approx(p0, abs=1e-12)


class TestExactNrReport:
    def test_coherent_closed_form_mse(self):
        """Coherent MSE is t / (nu * eta * mean): Poisson count variance."""
        rep = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(0.8, 0.9), 200)
        assert rep.mse == pytest.approx(0.8 / 180.0, abs=1e-12)
        assert rep.mse == pytest.approx(4.4444444444444444e-3, abs=1e-12)

    def test_fock_closed_form_mse(self):
        """Fock MSE is t(1 - t*eta) / (nu * eta): Bernoulli count variance."""
        rep = exact_report(Fock(1), Detector.NUMBER_RESOLVING, Channel(0.8, 0.9), 200)
        expected = 0.8 * (1.0 - 0.72) / (200 * 0.9)
        assert rep.mse == pytest.approx(expected, abs=1e-12)
        assert rep.mse == pytest.approx(1.2444444444444445e-3, abs=1e-12)

    @pytest.mark.parametrize(
        "source", [Coherent(1.0), Fock(1), make_multiplexed(2, 1.0)]
    )
    def test_unbiased_for_every_source(self, source):
        for t in T_GRID:
            rep = exact_report(source, Detector.NUMBER_RESOLVING, Channel(float(t), 0.9), 200)
            assert abs(rep.bias) < 1e-12

    def test_opaque_sample(self):
        rep = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(0.0, 0.9), 200)
        assert rep.expectation == 0.0
        assert rep.mse == 0.0

    def test_mse_is_variance_plus_bias_squared(self):
        rep = exact_report(Coherent(0.7), Detector.NUMBER_RESOLVING, Channel(0.55, 0.9), 137)
        assert rep.mse == pytest.approx(rep.variance + rep.bias**2, abs=1e-15)

    @pytest.mark.parametrize("nu", [10, 100, 1000])
    def test_mse_scales_inversely_with_repetitions(self, nu):
        base = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(0.6, 0.9), 1)
        rep = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(0.6, 0.9), nu)
        assert rep.mse == pytest.approx(base.mse / nu, rel=1e-12)


class TestExactThresholdReport:
    def test_unbiased_at_endpoints(self):
        for source in (Coherent(1.0), Fock(1), make_multiplexed(3, 1.0)):
            assert exact_report(source, Detector.THRESHOLD, Channel(0.0, 0.9), 200).bias == 0.0
            assert exact_report(source, Detector.THRESHOLD, Channel(1.0, 0.9), 200).bias == 0.0

    def test_coherent_bias_closed_form(self):
        """E(T) = (1 - e^-0.72) / (1 - e^-0.9): positively biased at t = 0.8."""
        rep = exact_report(Coherent(1.0), Detector.THRESHOLD, Channel(0.8, 0.9), 200)
        expected_e = (-math.expm1(-0.72)) / (-math.expm1(-0.9))
        assert rep.expectation == pytest.approx(expected_e, abs=1e-12)
        assert rep.expectation == pytest.approx(0.86488, abs=5e-6)
        assert rep.bias == pytest.approx(expected_e - 0.8, abs=1e-12)
        assert 0.05 < rep.bias < 0.08

    def test_binomial_variance(self):
        source = Coherent(1.0)
        ch = Channel(0.8, 0.9)
        nu = 200
        p = -math.expm1(-0.72)
        p0 = -math.expm1(-0.9)
        rep = exact_report(source, Detector.THRESHOLD, ch, nu)
        assert rep.variance == pytest.approx(p * (1 - p) / (nu * p0**2), abs=1e-15)

    def test_fock_reduces_to_unbiased(self):
        for t in T_GRID:
            rep = exact_report(Fock(1), Detector.THRESHOLD, Channel(float(t), 0.9), 200)
            assert abs(rep.bias) < 1e-12

    def test_biased_strictly_inside_interval(self):
        for source in (Coherent(1.0), make_multiplexed(2, 1.0)):
            for t in np.linspace(0.1, 0.9, 9):
                rep = exact_report(source, Detector.THRESHOLD, Channel(float(t), 0.9), 200)
                assert abs(rep.bias) > 1e-6

    def test_multiplexed_bias_below_coherent(self):
        """Sub-Poissonian statistics shrink the threshold bias."""
        mux = make_multiplexed(3, 1.0)
        for t in np.linspace(0.05, 0.95, 19):
            ch = Channel(float(t), 0.9)
            b_mux = abs(exact_report(mux, Detector.THRESHOLD, ch, 200).bias)
            b_coh = abs(exact_report(Coherent(1.0), Detector.THRESHOLD, ch, 200).bias)
            assert b_mux < b_coh

    @pytest.mark.parametrize("nu", [10, 100, 1000])
    def test_variance_scales_bias_does_not(self, nu):
        ch = Channel(0.7, 0.9)
        base = exact_report(Coherent(1.0), Detector.THRESHOLD, ch, 1)
        rep = exact_report(Coherent(1.0), Detector.THRESHOLD, ch, nu)
        assert rep.variance == pytest.approx(base.variance / nu, rel=1e-12)
        assert rep.bias == pytest.approx(base.bias, abs=1e-15)


class TestSnlRatio:
    def test_self_ratio_is_one(self):
        rep = snl_report(1.0, Channel(0.5, 0.9), 200)
        assert snl_ratio(rep, rep) == pytest.approx(1.0, abs=1e-15)

    def test_fock_ratio_closed_form(self):
        """UQL over SNL is 1 / (1 - t*eta); 10 at t = 1, eta = 0.9."""
        for t in (0.2, 0.5, 0.8, 1.0):
            ch = Channel(t, 0.9)
            ratio = snl_ratio(
                exact_report(Fock(1), Detector.NUMBER_RESOLVING, ch, 200), snl_report(1.0, ch, 200)
            )
            assert ratio == pytest.approx(1.0 / (1.0 - 0.9 * t), rel=1e-10)
        ch = Channel(1.0, 0.9)
        assert snl_ratio(
            exact_report(Fock(1), Detector.NUMBER_RESOLVING, ch, 200), snl_report(1.0, ch, 200)
        ) == pytest.approx(10.0, rel=1e-10)

    def test_multiplexed_beats_snl_everywhere(self):
        src = make_multiplexed(2, 1.0)
        for t in np.linspace(0.01, 1.0, 34):
            ch = Channel(float(t), 0.9)
            rep = exact_report(src, Detector.NUMBER_RESOLVING, ch, 200)
            ratio = snl_ratio(rep, snl_report(1.0, ch, 200))
            assert ratio > 1.0

    def test_undefined_at_zero_transmission(self):
        ch = Channel(0.0, 0.9)
        rep = exact_report(Fock(1), Detector.NUMBER_RESOLVING, ch, 200)
        assert snl_ratio(rep, snl_report(1.0, ch, 200)) is None

    def test_mismatched_reports_rejected(self):
        a = snl_report(1.0, Channel(0.5, 0.9), 200)
        b = snl_report(1.0, Channel(0.6, 0.9), 200)
        with pytest.raises(ValueError):
            snl_ratio(a, b)


class TestAsymptoticFloor:
    def test_zero_at_transparent_sample(self):
        assert asymptotic_relative_mse_floor(
            Coherent(1.0), Channel(1.0, 0.9)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_fock(self):
        for t in (0.2, 0.6, 0.9):
            assert asymptotic_relative_mse_floor(Fock(1), Channel(t, 0.9)) < 1e-10

    def test_undefined_at_zero_transmission(self):
        assert asymptotic_relative_mse_floor(Coherent(1.0), Channel(0.0, 0.9)) is None

    def test_multiplexed_floor_well_below_coherent(self):
        """At matched intensity the multiplexed source loses several times
        less accuracy to threshold bias than the coherent beam."""
        ch = Channel(0.6, 0.9)
        f_coh = asymptotic_relative_mse_floor(Coherent(0.5), ch)
        f_mux = asymptotic_relative_mse_floor(make_multiplexed(3, 0.5), ch)
        assert f_mux < f_coh
        assert 2.0 < f_coh / f_mux < 8.0

    def test_floor_ordering_across_transmissions(self):
        mux = make_multiplexed(3, 0.5)
        for t in np.linspace(0.1, 0.99, 10):
            ch = Channel(float(t), 0.9)
            assert asymptotic_relative_mse_floor(mux, ch) < asymptotic_relative_mse_floor(
                Coherent(0.5), ch
            )


class TestRelativeMse:
    def test_root_convention_default(self):
        rep = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(0.8, 0.9), 200)
        assert rep.relative_mse_percent == pytest.approx(
            100.0 * math.sqrt(rep.mse) / 0.8, abs=1e-12
        )

    def test_undefined_at_zero(self):
        assert relative_mse_percent(0.1, 0.0) is None


class TestExactReportDispatch:
    def test_each_detector_gets_its_count_statistics(self):
        """Poisson counts for number resolution, Bernoulli clicks for
        threshold detection, from the one `exact_report`."""
        ch = Channel(0.4, 0.9)
        nr = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, ch, 50)
        assert nr.expectation == pytest.approx(0.4, rel=1e-14)
        assert nr.variance == pytest.approx(0.36 / (50 * 0.9**2), rel=1e-14)
        th = exact_report(Coherent(1.0), Detector.THRESHOLD, ch, 50)
        p, p0 = -math.expm1(-0.36), -math.expm1(-0.9)
        assert th.expectation == pytest.approx(p / p0, rel=1e-14)
        assert th.variance == pytest.approx(p * (1.0 - p) / (50 * p0**2), rel=1e-14)

    @pytest.mark.parametrize("detector", list(Detector))
    @pytest.mark.parametrize(
        "source, channel",
        [
            (Coherent(0.0), Channel(0.5, 0.9)),
            (Coherent(1.0), Channel(0.5, 0.0)),
            (Coherent(1e-200), Channel(0.5)),
            (Coherent(1e-170), Channel(0.5)),
        ],
        ids=["vacuum-source", "blind-detector", "reference-1e-200", "reference-1e-170"],
    )
    def test_zero_reference_rejected(self, source, channel, detector):
        """A vacuum source or a blind detector leaves nothing to normalize by,
        and a reference below ~1e-154 has a square that underflows: a
        ValueError, not a bare ZeroDivisionError."""
        with pytest.raises(ValueError, match="reference must be > 0"):
            exact_report(source, detector, channel, 50)

    def test_overflowing_reference_rejected(self):
        """A number-resolving reference above ~1e154 squares to infinity: a
        ValueError, not a bare OverflowError."""
        with pytest.raises(ValueError, match="reference must be > 0"):
            exact_report(Coherent(1e200), Detector.NUMBER_RESOLVING, Channel(0.5), 50)
