"""Detector maps: thinned photon counts (the detected-count rows the Monte
Carlo engine samples) and threshold click probabilities."""

import math

import numpy as np
import pytest

from _oracles import enumerate_click_probability, enumerate_mux_output, poisson_probs
from subshot.detection import Channel
from subshot.montecarlo import _count_rows
from subshot.pmf import poisson_rows
from subshot.sources import Coherent, Fock, Multiplexed, MuxParams, source_click_probability


class TestChannel:
    def test_survival_product(self):
        assert Channel(0.8, 0.9).survival == pytest.approx(0.72)

    @pytest.mark.parametrize("kwargs", [{"transmission": 1.2}, {"detector_eff": -0.1}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Channel(**{"transmission": 0.5, "detector_eff": 0.9, **kwargs})


class TestNumberResolving:
    def test_transparent_lossless_is_identity(self):
        out = _count_rows(Coherent(0.7), Channel(1.0, 1.0).survival)
        np.testing.assert_array_equal(out, poisson_rows(0.7, out.size - 1))

    def test_poisson_thinning(self):
        out = _count_rows(Coherent(1.0), Channel(0.8, 0.9).survival)
        direct = poisson_probs(0.72, out.size - 1)
        np.testing.assert_allclose(out, direct, rtol=0, atol=1e-10)

    def test_single_photon_bernoulli(self):
        out = _count_rows(Fock(1), Channel(0.5, 0.9).survival)
        np.testing.assert_allclose(out, [0.55, 0.45], atol=1e-15)

    def test_mean_scaling(self):
        ch = Channel(0.6, 0.9)
        out = _count_rows(Coherent(1.4), ch.survival)
        assert float(np.arange(out.size) @ out) == pytest.approx(ch.survival * 1.4, abs=1e-12)


class TestClickProbability:
    def test_fock_click_is_survival_exactly(self):
        for t in (0.0, 0.3, 0.77, 1.0):
            ch = Channel(t, 0.9)
            assert source_click_probability(Fock(1), ch.survival) == pytest.approx(
                t * 0.9, abs=1e-15
            )

    def test_opaque_sample_never_clicks(self):
        assert source_click_probability(Coherent(2.0), Channel(0.0, 0.9).survival) == 0.0

    @pytest.mark.parametrize("mean", [0.3, 1.0, 2.5])
    def test_poisson_generating_function(self, mean):
        """Coherent click probability is 1 - exp(-t * eta * mean)."""
        ch = Channel(0.8, 0.9)
        expected = -math.expm1(-ch.survival * mean)
        assert enumerate_click_probability(poisson_probs(mean, 60), ch.survival) == pytest.approx(
            expected, abs=1e-12
        )
        assert source_click_probability(Coherent(mean), ch.survival) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_direct_summation(self):
        params = MuxParams(stages=2, pair_mean=0.3, herald_eff=0.7)
        probs = enumerate_mux_output(2, 0.3, 0.7, params.stage_transmission, params.optics_transmission)
        ch = Channel(0.6, 0.9)
        assert source_click_probability(Multiplexed(params), ch.survival) == pytest.approx(
            enumerate_click_probability(probs, ch.survival), abs=1e-13
        )

    def test_bounded_by_emission_probability(self):
        src = Coherent(1.0)
        emission = 1.0 - poisson_probs(1.0)[0]
        assert source_click_probability(src, Channel(0.7, 0.9).survival) <= emission
        assert source_click_probability(src, Channel(1.0, 1.0).survival) == pytest.approx(
            emission, abs=1e-12
        )

    def test_strictly_increasing_in_transmission(self):
        src = Coherent(0.8)
        probs = [
            source_click_probability(src, Channel(t, 0.9).survival) for t in np.linspace(0.05, 1, 12)
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
                MuxParams(
                    stages=int(rng.integers(1, 5)),
                    pair_mean=float(rng.uniform(0.05, 1.0)),
                    herald_eff=float(rng.uniform(0.4, 1.0)),
                )
            ),
        ]
        ch = Channel(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.5, 1.0)))
        for src in sources:
            detected = _count_rows(src, ch.survival)
            assert source_click_probability(src, ch.survival) == pytest.approx(
                1.0 - detected[0], abs=1e-12
            )
