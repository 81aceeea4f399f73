"""Checks of the oracles in `_oracles.py`.

The click-probability oracle is compared with exact rational arithmetic.

For coherent light the NR estimator MSE under a Gaussian pump has a closed
form in the moments of the relative pump x (clamped at zero, or conditioned
on x > 0 when negative draws are resampled).  For the multiplexed source the
oracle's event enumeration is compared with the same quadrature run over the
`subshot` detected-count rows.
"""

import functools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from _oracles import (
    enumerate_click_probability,
    enumerate_mux_output,
    gaussian_pump_nodes,
    nr_mse_fluctuating_pump,
    poisson_probs,
    thinned_count_moments,
    tune_pump,
)
from subshot.estimators import Detector, reference_mean
from subshot.sources import CountRows, Multiplexed, tune_pair_mean

T, ETA, NU, MEAN = 0.8, 0.9, 200, 0.5
REDRAWS = ("per-round", "per-repetition")
NEGATIVES = ("clamp", "resample")


@pytest.mark.parametrize("survival", [1.19e-7, 0.3, 1.0])
def test_click_oracle_is_exact_at_small_survival(survival):
    """Fock(21): 1 - (1 - s)^21 cancels at small s when evaluated directly
    (~1e-9 relative at s = 1.19e-7); the oracle must stay at rounding level."""
    probs = [0.0] * 21 + [1.0]
    exact = 1 - (1 - Fraction(survival)) ** 21
    got = enumerate_click_probability(probs, survival)
    assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def _inflation(count_moments, reference, a, redraw, negatives):
    def mse(a):
        return nr_mse_fluctuating_pump(count_moments, reference, T, NU, a, redraw, negatives)

    return mse(a) / mse(0.0)


def _coherent_closed_form(a, redraw, negatives):
    """MSE(a) / MSE(0) of coherent NR from E[x] and E[x^2] of the pump."""
    c = 1.0 / a
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * math.erfc(-c / math.sqrt(2.0))
    ex, ex2 = big_phi + a * phi, (1.0 + a * a) * big_phi + a * phi
    if negatives == "resample":
        ex, ex2 = ex / big_phi, ex2 / big_phi
    shot = T / (NU * ETA * MEAN)  # MSE at a = 0
    if redraw == "per-round":
        return 1.0 + (T * T * (ex2 - 2.0 * ex + 1.0) + shot * (ex - 1.0)) / shot
    return (shot * ex + T * T * (ex2 - ex * ex) / NU + T * T * (ex - 1.0) ** 2) / shot


@pytest.mark.parametrize("negatives", NEGATIVES)
@pytest.mark.parametrize("redraw", REDRAWS)
@pytest.mark.parametrize("a", [0.2, 0.6])
def test_pump_oracle_matches_coherent_closed_form(a, redraw, negatives):
    def count_moments(x):
        return thinned_count_moments(poisson_probs(MEAN * x), T * ETA)

    got = _inflation(count_moments, ETA * MEAN, a, redraw, negatives)
    assert got == pytest.approx(_coherent_closed_form(a, redraw, negatives), rel=1e-9)


@pytest.mark.parametrize("a", [0.001, 0.01, 0.05])
def test_pump_nodes_hold_the_normal_mass_at_small_a(a):
    """Below a = 0.1 the pump is almost never clamped, and the nodes must
    still carry the whole normal mass."""
    weights = [w for _, w in gaussian_pump_nodes(a, "clamp")]
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-13)


def test_coherent_closed_form_values():
    assert _coherent_closed_form(0.6, "per-round", "clamp") == pytest.approx(24.83666, rel=1e-6)
    assert _coherent_closed_form(0.6, "per-repetition", "clamp") == pytest.approx(
        1.141158, rel=1e-6
    )


def test_pump_oracle_matches_subshot_count_rows_mux5():
    src = Multiplexed(stages=5, pair_mean=0.0)

    def enumerated(pump):
        # Pumps reach 7x the tuned 0.134, where the tail beyond 20 is < 1e-20.
        return enumerate_mux_output(
            src.stages,
            pump,
            src.herald_eff,
            src.stage_transmission,
            src.optics_transmission,
            n_cut=20,
        )

    oracle_pump = tune_pump(enumerated, MEAN)
    oracle_reference = ETA * thinned_count_moments(enumerated(oracle_pump), 1.0)[0]

    @functools.cache
    def oracle_moments(x):
        return thinned_count_moments(enumerated(oracle_pump * x), T * ETA)

    pump = tune_pair_mean(src, MEAN)
    row_reference = reference_mean(replace(src, pair_mean=pump), Detector.NUMBER_RESOLVING, ETA)

    @functools.cache
    def row_moments(x):
        return thinned_count_moments(CountRows(src, T * ETA).rows(pump * x), 1.0)

    expected = {
        ("per-round", "clamp"): 9.4606,
        ("per-repetition", "clamp"): 2.0010,
        ("per-round", "resample"): 4.6981,
        ("per-repetition", "resample"): 1.2963,
    }
    for (redraw, negatives), value in expected.items():
        oracle = _inflation(oracle_moments, oracle_reference, 0.6, redraw, negatives)
        via_rows = _inflation(row_moments, row_reference, 0.6, redraw, negatives)
        assert oracle == pytest.approx(via_rows, rel=1e-6), (redraw, negatives)
        assert oracle == pytest.approx(value, rel=1e-4), (redraw, negatives)
