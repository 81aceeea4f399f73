"""Detector maps: thinned photon counts (the detected-count rows the Monte
Carlo engine samples) and threshold click probabilities."""

import math

import numpy as np
import pytest

from _oracles import (
    enumerate_click_probability,
    enumerate_mux_output,
    enumerate_no_click_probability,
    poisson_probs,
)
from subshot.detection import Channel, Detector, detected_moments
from subshot.pmf import poisson_rows
from subshot.sources import (
    Coherent,
    ConfigError,
    CountRows,
    Fock,
    Multiplexed,
    make_multiplexed,
    source_click_probabilities,
)


class TestChannel:
    def test_survival_product(self):
        assert Channel(0.8, 0.9).survival == pytest.approx(0.72)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transmission": 1.2},
            {"detector_eff": -0.1},
            {"detector_eff": float("nan")},
            {"transmission": np.array([0.0, 0.5, 1.0 + 1e-12, 1.0])},
            {"transmission": np.array([0.5, float("nan")])},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigError, match=field) as err:
            Channel(**{"transmission": 0.5, "detector_eff": 0.9, **kwargs})
        assert err.value.field == field


class TestNumberResolving:
    def test_transparent_lossless_is_identity(self):
        out = CountRows(Coherent(0.7), Channel(1.0, 1.0).survival).rows()
        np.testing.assert_array_equal(out, poisson_rows(0.7, out.size - 1))

    def test_poisson_thinning(self):
        out = CountRows(Coherent(1.0), Channel(0.8, 0.9).survival).rows()
        direct = poisson_probs(0.72, out.size - 1)
        np.testing.assert_allclose(out, direct, rtol=0, atol=1e-10)

    def test_single_photon_bernoulli(self):
        out = CountRows(Fock(1), Channel(0.5, 0.9).survival).rows()
        np.testing.assert_allclose(out, [0.55, 0.45], atol=1e-15)

    def test_mean_scaling(self):
        ch = Channel(0.6, 0.9)
        out = CountRows(Coherent(1.4), ch.survival).rows()
        assert float(np.arange(out.size) @ out) == pytest.approx(ch.survival * 1.4, abs=1e-12)


class TestClickProbability:
    def test_fock_click_is_survival_exactly(self):
        for t in (0.0, 0.3, 0.77, 1.0):
            ch = Channel(t, 0.9)
            assert source_click_probabilities(Fock(1), ch.survival)[1] == pytest.approx(
                t * 0.9, abs=1e-15
            )

    def test_opaque_sample_never_clicks(self):
        assert source_click_probabilities(Coherent(2.0), Channel(0.0, 0.9).survival)[1] == 0.0

    @pytest.mark.parametrize("mean", [0.3, 1.0, 2.5])
    def test_poisson_generating_function(self, mean):
        """Coherent click probability is 1 - exp(-t * eta * mean)."""
        ch = Channel(0.8, 0.9)
        expected = -math.expm1(-ch.survival * mean)
        assert enumerate_click_probability(poisson_probs(mean, 60), ch.survival) == pytest.approx(
            expected, abs=1e-12
        )
        assert source_click_probabilities(Coherent(mean), ch.survival)[1] == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_direct_summation(self):
        src = Multiplexed(stages=2, pair_mean=0.3, herald_eff=0.7)
        probs = enumerate_mux_output(2, 0.3, 0.7, src.stage_transmission, src.optics_transmission)
        ch = Channel(0.6, 0.9)
        assert source_click_probabilities(src, ch.survival)[1] == pytest.approx(
            enumerate_click_probability(probs, ch.survival), abs=1e-13
        )

    def test_bounded_by_emission_probability(self):
        src = Coherent(1.0)
        emission = 1.0 - poisson_probs(1.0)[0]
        assert source_click_probabilities(src, Channel(0.7, 0.9).survival)[1] <= emission
        assert source_click_probabilities(src, Channel(1.0, 1.0).survival)[1] == pytest.approx(
            emission, abs=1e-12
        )

    def test_strictly_increasing_in_transmission(self):
        src = Coherent(0.8)
        probs = [
            source_click_probabilities(src, Channel(t, 0.9).survival)[1]
            for t in np.linspace(0.05, 1, 12)
        ]
        assert np.all(np.diff(probs) > 0)


class TestClickCountIdentity:
    """Clicks are exactly 'at least one detected photon': the threshold map
    must agree with the zero-count complement of the thinned distribution."""

    @pytest.mark.parametrize("seed", range(5))
    def test_click_equals_one_minus_detected_vacuum(self, seed):
        rng = np.random.default_rng(seed)
        sources = [
            Coherent(float(rng.uniform(0.05, 3.0))),
            Fock(int(rng.integers(1, 4))),
            Multiplexed(
                stages=int(rng.integers(1, 5)),
                pair_mean=float(rng.uniform(0.05, 1.0)),
                herald_eff=float(rng.uniform(0.4, 1.0)),
            ),
        ]
        ch = Channel(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.5, 1.0)))
        for src in sources:
            detected = CountRows(src, ch.survival).rows()
            assert source_click_probabilities(src, ch.survival)[1] == pytest.approx(
                1.0 - detected[0], abs=1e-12
            )


class TestCertainClicks:
    """Where a click is all but certain, the no-click probability is tiny
    and 1 - p would lose its digits: the threshold variance p (1 - p) must
    still match the oracle sums to 1e-12 relative."""

    @pytest.mark.parametrize("mean", [30, 40])
    def test_variance_matches_oracles(self, mean):
        ch = Channel(0.9, 0.9)
        s = ch.survival
        # Coherent closed form: no click with probability e^{-s mean}.
        closed = (math.exp(-s * mean), -math.expm1(-s * mean))
        mux = make_multiplexed(2, float(mean))
        cases = [
            (Coherent(float(mean)), closed),
            (Fock(mean), [0.0] * mean + [1.0]),
            (mux, enumerate_mux_output(2, mux.pair_mean, mux.herald_eff,
                                       mux.stage_transmission, mux.optics_transmission, 150)),
        ]
        for source, probs in cases:
            if len(probs) > 2:
                probs = (enumerate_no_click_probability(probs, s), enumerate_click_probability(probs, s))
            miss, click = source_click_probabilities(source, s)
            assert miss == pytest.approx(probs[0], rel=1e-12, abs=0.0)
            assert click == pytest.approx(probs[1], rel=1e-12, abs=0.0)
            variance = detected_moments(source, Detector.THRESHOLD, s).variance
            assert variance == pytest.approx(probs[0] * probs[1], rel=1e-12, abs=0.0)
