"""Source models, checked against an independent event-level enumeration of
the window-by-window multiplexing process."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import enumerate_mux_output, poisson_probs, sync_probability, thinned_count_moments
from subshot.pmf import Moments, poisson_rows
from subshot.sources import (
    MAX_STAGES,
    Coherent,
    ConfigError,
    CountRows,
    Fock,
    Multiplexed,
    _mux_constants,
    check_range,
    check_reach,
    make_multiplexed,
    source_moments,
    tune_pair_mean,
)


def params(m=2, mu=0.2, herald=0.5, stage=0.95, optics=0.9):
    return Multiplexed(
        stages=m,
        pair_mean=mu,
        herald_eff=herald,
        stage_transmission=stage,
        optics_transmission=optics,
    )


def output_row(p: Multiplexed) -> np.ndarray:
    """Photon-number distribution at the sample plane at the pump `p` carries."""
    return CountRows(p, 1.0).rows()


def moments(row) -> Moments:
    """Mean and variance by summation over a row."""
    mean, second = thinned_count_moments(row, 1.0)
    variance = second - mean * mean
    return Moments(mean, variance)


class TestMultiplexed:
    def test_window_count(self):
        assert 2 ** params(m=3).stages == 8

    def test_network_transmission(self):
        assert _mux_constants(params(m=2, stage=0.9))[3] == pytest.approx(0.81)

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

    def test_integral_float_stage_count_is_an_int(self):
        assert Multiplexed(2.0, 0.1).stages == 2
        assert isinstance(Multiplexed(2.0, 0.1).stages, int)
        assert 2 ** Multiplexed(MAX_STAGES, 0.1).stages == 2**MAX_STAGES


class TestHeraldModel:
    def test_sync_probability_two_windows(self):
        """Without loss every heralded window delivers a photon, so the
        vacuum entry of the output is 1 - P_sync."""
        p = params(m=1, mu=0.5, herald=0.5, stage=1.0, optics=1.0)
        # per-window herald probability: sum_n Poisson(n; mu) (1 - (1 - h)^n)
        p_w = sum(q * (1.0 - 0.5**n) for n, q in enumerate(poisson_probs(0.5)))
        p_sync = sync_probability(1, 0.5, 0.5)
        assert p_sync == pytest.approx(1 - (1 - p_w) ** 2, abs=1e-15)
        assert output_row(p)[0] == pytest.approx(1.0 - p_sync, abs=1e-15)

    def test_sync_probability_at_pump_values(self):
        """At an array of pumps each vacuum entry 1 - P_sync of a lossless
        network is the one at its pump alone."""
        p = params(m=3, mu=0.0, herald=0.6, stage=1.0, optics=1.0)
        pumps = np.array([0.0, 0.05, 0.7])
        vacuum = CountRows(p, 1.0).rows(pumps)[:, 0]
        expected = [CountRows(p, 1.0).rows(mu)[0] for mu in pumps.tolist()]
        np.testing.assert_array_equal(vacuum, expected)
        syncs = [sync_probability(3, mu, 0.6) for mu in pumps.tolist()]
        np.testing.assert_allclose(1.0 - vacuum, syncs, rtol=1e-12, atol=1e-15)

    def test_strong_pump_stays_finite(self):
        """At mu * herald_eff = 40 the per-window herald probability rounds to
        1.0; synchronization is then certain and the output row still valid."""
        p = params(m=1, mu=50.0, herald=0.8)
        assert -math.expm1(-p.pair_mean * p.herald_eff) == 1.0
        assert sync_probability(1, p.pair_mean, p.herald_eff) == 1.0
        out = output_row(p)
        assert out[0] < 1e-12
        assert moments(out).mean == pytest.approx(source_moments(p).mean, rel=1e-12)


class TestMuxOutput:
    def test_no_pump_gives_vacuum(self):
        # The Chernoff edge of a point mass at 0 is 2 counts (t = 30).
        np.testing.assert_array_equal(output_row(params(mu=0.0)), [1.0, 0.0])

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
        assert out.variance / out.mean < 1.0

    def test_poor_heralding_turns_bunched(self):
        """With scarce windows and weak heralding the output is mostly vacuum
        plus occasional multi-photon bursts, i.e. super-Poissonian.  At one
        stage and small pump the sub-Poissonian property needs a herald
        efficiency above 2/3 (herald gain 2h must beat the multi-photon
        slope 2 - h)."""
        out = moments(output_row(params(m=1, mu=1.0, herald=0.25)))
        assert out.variance / out.mean > 1.0
        small_pump = moments(output_row(params(m=1, mu=0.02, herald=0.65)))
        assert small_pump.variance / small_pump.mean > 1.0

    def test_mean_strictly_increasing_in_pump(self):
        mus = np.linspace(0.01, 2.0, 15)
        means = [moments(output_row(params(mu=m))).mean for m in mus]
        assert np.all(np.diff(means) > 0)

    def test_mean_and_fano_monotone_in_stage_transmission(self):
        """More per-stage loss never raises the mean or lowers the Fano factor."""
        stages = np.linspace(0.5, 1.0, 8)
        outs = [moments(output_row(params(stage=s))) for s in stages]
        means = [o.mean for o in outs]
        fanos = [o.variance / o.mean for o in outs]
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
        """A zero field keeps the output vacuum at every pump, so the reach
        check names it even for the tiniest target, the herald efficiency
        before the stage and the stage before the optics transmission."""
        check_reach([params()], 1.0)
        for kwargs, field in [
            ({"stage": 0.0, "optics": 0.0}, "stage_transmission"),
            ({"optics": 0.0}, "optics_transmission"),
            ({"herald": 0.0, "stage": 0.0}, "herald_eff"),
        ]:
            with pytest.raises(ConfigError) as err:
                check_reach([params(**kwargs)], 1e-300)
            assert err.value.field == field

    @pytest.mark.parametrize("target", [1e3, 1e6, 1e8, 1e12])
    @pytest.mark.parametrize("m", [1, 3, 6, 64])
    def test_large_targets_reached(self, target, m):
        """Above ~7e5 the float spacing of the mean exceeds the absolute
        tolerance; the tuning then stops at adjacent floats."""
        p = params(m=m, herald=0.9, stage=0.88)
        mu = tune_pair_mean(p, target)
        achieved = source_moments(replace(p, pair_mean=mu)).mean
        assert abs(achieved - target) <= 1e-13 * target

    def test_lossy_network_reached(self):
        p = params(m=40, herald=0.9, stage=0.01)
        mu = tune_pair_mean(p, 1.0)
        assert mu > 1e80
        achieved = source_moments(replace(p, pair_mean=mu)).mean
        assert achieved == pytest.approx(1.0, abs=1e-10)

    def test_target_beyond_pump_ceiling_rejected(self):
        with pytest.raises(ValueError, match="pump above"):
            tune_pair_mean(params(m=64, stage=1e-10), 1.0)

    def test_strong_pump_target_reachable(self):
        p = params(m=1, herald=0.9, stage=0.88, optics=0.9)
        mu = tune_pair_mean(p, 50.0)
        assert mu * 0.9 > 37.0
        assert source_moments(replace(p, pair_mean=mu)).mean == pytest.approx(50.0, abs=1e-9)


class TestSourceRowsAndValidation:
    def test_coherent_is_poisson_at_sample(self):
        got = CountRows(Coherent(1.0), 1.0).rows()
        np.testing.assert_array_equal(got, poisson_rows(1.0, got.size - 1))

    def test_fock_single_photon(self):
        np.testing.assert_array_equal(CountRows(Fock(1), 1.0).rows(), [0.0, 1.0])

    def test_multiplexed_tuned_mean(self):
        src = make_multiplexed(3, 0.5)
        assert source_moments(src).mean == pytest.approx(0.5, abs=1e-9)

    def test_negative_coherent_rejected(self):
        with pytest.raises(ValueError):
            Coherent(-1.0)

    def test_fractional_fock_rejected(self):
        with pytest.raises(ValueError):
            Fock(1.5)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Coherent(math.nan), "mean"),
            (lambda: Coherent(-1.0), "mean"),
            (lambda: Coherent(math.inf), "mean"),
            (lambda: Fock(1.5), "photons"),
            (lambda: Multiplexed(0, 0.1), "stages"),
            (lambda: Multiplexed(2.5, 0.1), "stages"),
            (lambda: Multiplexed(MAX_STAGES + 1, 0.1), "stages"),
            (lambda: make_multiplexed(2000, 0.5), "stages"),
            (lambda: Multiplexed(1, math.nan), "pair_mean"),
            (lambda: Multiplexed(2, math.inf), "pair_mean"),
            (lambda: Multiplexed(1, 0.1, herald_eff=math.nan), "herald_eff"),
            (lambda: Multiplexed(1, 0.1, stage_transmission=1.5), "stage_transmission"),
            (lambda: Multiplexed(1, 0.1, optics_transmission=-0.5), "optics_transmission"),
        ],
        ids=[
            "coherent-nan", "coherent-negative", "coherent-inf", "fock-fractional",
            "zero-stages", "fractional-stages", "stages-above-cap", "make-2000-stages",
            "pair-mean-nan", "pair-mean-inf", "herald-nan", "stage-above-1", "optics-negative",
        ],
    )
    def test_constructor_names_the_field(self, build, field):
        """Each constructor owns its fields' ranges and raises a ConfigError
        (a ValueError) naming the field, NaN and infinity included (an
        infinite pump would give a NaN variance and a count row with no
        support to search); 2000 stages fail by name, not by overflowing the
        pump tuning."""
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.field == field

    @pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf])
    def test_array_pump_entry_names_the_field(self, bad):
        """A pump array is checked entry by entry, as a transmission grid is."""
        pumps = np.array([0.2, bad, 0.7])
        with pytest.raises(ConfigError) as err:
            Coherent(pumps)
        assert err.value.field == "mean"
        with pytest.raises(ConfigError) as err:
            Multiplexed(2, pumps)
        assert err.value.field == "pair_mean"
        with pytest.raises(ValueError, match="target mean must be > 0"):
            tune_pair_mean(params(), pumps)

    def test_infinite_target_mean_is_refused_by_the_tuning(self):
        """Not as an unreachable target, which would name a calibration
        field."""
        with pytest.raises(ValueError, match="target mean must be > 0 and finite") as err:
            make_multiplexed(3, math.inf)
        assert not isinstance(err.value, ConfigError)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            source_moments(object())
        with pytest.raises(TypeError):
            CountRows(object(), 1.0).rows()


@pytest.mark.parametrize("high", [1.0, 3.5, math.inf])
def test_range_check_of_a_float_is_that_of_an_array(high):
    """A Python float is checked by comparisons and an array by ufuncs,
    under one rule and one message: the same field and text for each."""
    def refusal(value):
        try:
            check_range("field", value, high)
        except ConfigError as err:
            return err.field, str(err)
        return None

    values = [math.nan, math.inf, -math.inf, -1e-300, 0.0, high, math.nextafter(high, math.inf)]
    for value in values:
        expected = refusal(np.array([value]))
        assert refusal(value) == expected, value
        assert refusal(np.float64(value)) == expected, value
        assert refusal(np.array([0.5, value, 0.25])) == expected, value
    accepted = [False, False, False, False, True, math.isfinite(high), False]
    assert [refusal(v) is None for v in values] == accepted
