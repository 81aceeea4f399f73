"""Source models, checked against an independent event-level enumeration of
the window-by-window multiplexing process."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import enumerate_mux_output, poisson_probs, thinned_count_moments
from subshot.montecarlo import _count_rows
from subshot.pmf import Moments, poisson_rows
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    make_multiplexed,
    mux_output_rows,
    source_moments,
    sync_probability_at,
    tune_pair_mean,
    unreachable_field,
)


def params(m=2, mu=0.2, herald=0.5, stage=0.95, optics=0.9):
    return MuxParams(
        stages=m,
        pair_mean=mu,
        herald_eff=herald,
        stage_transmission=stage,
        optics_transmission=optics,
    )


def output_row(p: MuxParams) -> np.ndarray:
    """Photon-number distribution at the sample plane at the pump `p` carries."""
    return mux_output_rows(p, p.pair_mean, 1.0, 1e-18)


def moments(row) -> Moments:
    """Mean, variance and Fano factor by summation over a row."""
    mean, second = thinned_count_moments(row, 1.0)
    variance = second - mean * mean
    return Moments(mean, variance, variance / mean if mean > 0 else None)


class TestMuxParams:
    def test_window_count(self):
        assert params(m=3).window_count == 8

    def test_network_transmission(self):
        assert params(m=2, stage=0.9).network_transmission == pytest.approx(0.81)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"mu": -0.1},
            {"herald": 1.2},
            {"stage": -0.01},
            {"optics": 2.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            params(**kwargs)


class TestHeraldModel:
    def test_sync_probability_two_windows(self):
        p = params(m=1, mu=0.5, herald=0.5)
        # per-window herald probability: sum_n Poisson(n; mu) (1 - (1 - h)^n)
        p_w = sum(q * (1.0 - 0.5**n) for n, q in enumerate(poisson_probs(0.5)))
        assert sync_probability_at(p, p.pair_mean) == pytest.approx(1 - (1 - p_w) ** 2, abs=1e-15)

    def test_sync_probability_at_pump_values(self):
        p = params(m=3, mu=0.0, herald=0.6)
        pumps = np.array([0.0, 0.05, 0.7])
        expected = [sync_probability_at(p, float(mu)) for mu in pumps]
        np.testing.assert_array_equal(sync_probability_at(p, pumps), expected)

    def test_strong_pump_stays_finite(self):
        """At mu * herald_eff = 40 the per-window herald probability rounds to
        1.0; synchronization is then certain and the output row still valid."""
        p = params(m=1, mu=50.0, herald=0.8)
        assert -math.expm1(-p.pair_mean * p.herald_eff) == 1.0
        assert sync_probability_at(p, p.pair_mean) == 1.0
        out = output_row(p)
        assert out[0] < 1e-12
        assert moments(out).mean == pytest.approx(source_moments(Multiplexed(p)).mean, rel=1e-12)


class TestMuxOutput:
    def test_no_pump_gives_vacuum(self):
        out = output_row(params(mu=0.0))
        assert out.size == 1 and out[0] == 1.0

    def test_no_heralds_gives_vacuum(self):
        out = output_row(params(herald=0.0))
        assert out[0] == 1.0 and not out[1:].any()

    def test_ideal_limit_is_zero_truncated_poisson(self):
        """With lossless optics, perfect heralding and a strong pump the
        output collapses to a Poisson conditioned on n >= 1."""
        out = output_row(params(m=2, mu=8.0, herald=1.0, stage=1.0, optics=1.0))
        expected = np.array(poisson_probs(8.0, out.size - 1))
        expected[0] = 0.0
        expected /= -math.expm1(-8.0)
        np.testing.assert_allclose(out[1:], expected[1:], atol=1e-9)
        assert out[0] == pytest.approx(math.exp(-8.0) ** 4, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.05, 0.2, 0.5])
    def test_matches_event_level_enumeration(self, m, mu):
        """Closed-form rows equal the brute-force window walk."""
        p = params(m=m, mu=mu, herald=0.5, stage=0.95, optics=0.9)
        expected = enumerate_mux_output(m, mu, 0.5, 0.95, 0.9)
        out = output_row(p)
        got = np.zeros(len(expected))
        got[: min(out.size, len(expected))] = out[: len(expected)]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("mu", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("herald", [0.75, 0.9])
    def test_sub_poissonian(self, m, mu, herald):
        out = moments(output_row(params(m=m, mu=mu, herald=herald)))
        assert out.fano < 1.0

    def test_poor_heralding_turns_bunched(self):
        """With scarce windows and weak heralding the output is mostly vacuum
        plus occasional multi-photon bursts, i.e. super-Poissonian.  At one
        stage and small pump the sub-Poissonian property needs a herald
        efficiency above 2/3 (herald gain 2h must beat the multi-photon
        slope 2 - h)."""
        out = moments(output_row(params(m=1, mu=1.0, herald=0.25)))
        assert out.fano > 1.0
        small_pump = moments(output_row(params(m=1, mu=0.02, herald=0.65)))
        assert small_pump.fano > 1.0

    def test_mean_strictly_increasing_in_pump(self):
        mus = np.linspace(0.01, 2.0, 15)
        means = [moments(output_row(params(mu=m))).mean for m in mus]
        assert np.all(np.diff(means) > 0)

    def test_mean_and_fano_monotone_in_stage_transmission(self):
        """More per-stage loss never raises the mean or lowers the Fano factor."""
        stages = np.linspace(0.5, 1.0, 8)
        outs = [moments(output_row(params(stage=s))) for s in stages]
        means = [o.mean for o in outs]
        fanos = [o.fano for o in outs]
        assert np.all(np.diff(means) > 0)
        assert np.all(np.diff(fanos) <= 1e-12)


class TestTunePairMean:
    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            tune_pair_mean(params(), 0.0)

    def test_collapsed_model_fixed_point(self):
        """With every efficiency at 1, the tuned pump reproduces the target
        through the analytic mean of the click-conditioned Poisson mixture."""
        p = params(m=1, herald=1.0, stage=1.0, optics=1.0)
        mu = tune_pair_mean(p, 1.0)
        p_w = -math.expm1(-mu)
        p_sync = 1 - (1 - p_w) ** 2
        conditional_mean = mu / p_w  # E[n | n >= 1] for a Poisson
        assert p_sync * conditional_mean == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("target", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_residuals(self, target, m):
        p = params(m=m, herald=0.9, stage=0.88)
        mu = tune_pair_mean(p, target)
        achieved = moments(output_row(replace(p, pair_mean=mu))).mean
        assert abs(achieved - target) < 1e-9

    def test_small_target_forces_small_pump(self):
        assert tune_pair_mean(params(), 1e-4) < 1e-3

    @pytest.mark.parametrize("field", ["herald", "stage", "optics"])
    def test_zero_transmission_target_unreachable(self, field):
        name = {"herald": "herald_eff", "stage": "stage_transmission", "optics": "optics_transmission"}[field]
        with pytest.raises(ValueError, match=name):
            tune_pair_mean(params(**{field: 0.0}), 0.5)

    def test_unreachable_field_names_the_zero_field(self):
        assert unreachable_field(params()) is None
        assert unreachable_field(params(stage=0.0, optics=0.0)) == "stage_transmission"
        assert unreachable_field(params(optics=0.0)) == "optics_transmission"

    def test_strong_pump_target_reachable(self):
        p = params(m=1, herald=0.9, stage=0.88, optics=0.9)
        mu = tune_pair_mean(p, 50.0)
        assert mu * 0.9 > 37.0
        assert source_moments(Multiplexed(replace(p, pair_mean=mu))).mean == pytest.approx(50.0, abs=1e-9)


class TestSourcePmf:
    def test_coherent_is_poisson_at_sample(self):
        got = _count_rows(Coherent(1.0), 1.0)
        np.testing.assert_array_equal(got, poisson_rows(1.0, got.size - 1))

    def test_fock_single_photon(self):
        np.testing.assert_array_equal(_count_rows(Fock(1), 1.0), [0.0, 1.0])

    def test_multiplexed_tuned_mean(self):
        src = make_multiplexed(3, 0.5)
        assert source_moments(src).mean == pytest.approx(0.5, abs=1e-9)

    def test_negative_coherent_rejected(self):
        with pytest.raises(ValueError):
            Coherent(-1.0)

    def test_fractional_fock_rejected(self):
        with pytest.raises(ValueError):
            Fock(1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            source_moments(object())
        with pytest.raises(TypeError):
            _count_rows(object(), 1.0)
