"""Closed-form source moments, click probabilities and photon-number
distributions, cross-checked over randomized parameters against sums over
photon-number distributions: the closed-form rows, the textbook Poisson and
the window-by-window enumeration oracle.

The references sum over the full distribution with the oracle's thinning and
click formulas;
the closed-form moments must agree with them to 1e-12 relative (absolute
floor 1e-15) everywhere in the sampled region, edges included: perfect
heralding, survival 0 and 1, and up to 10 delay stages (1024 windows).  The
closed-form distribution rows must match the enumeration entry by entry to
1e-12 absolute.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    enumerate_click_probability,
    enumerate_mux_output,
    poisson_probs,
    thinned_count_moments,
)
from subshot.detection import Channel, nr_detected_moments
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    mux_output_rows,
    source_click_probability,
    source_moments,
    tune_pair_mean,
)

RTOL, ATOL = 1e-12, 1e-15

# Fixed example sequence: the suite stays deterministic and writes no
# example database.
CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
ORACLE_CHECKS = settings(CHECKS, max_examples=40)

survivals = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
herald_effs = st.one_of(st.just(1.0), st.floats(0.05, 1.0))


@st.composite
def mux_params(draw, max_pump=3.0, max_stages=10):
    return MuxParams(
        stages=draw(st.integers(1, max_stages)),
        pair_mean=draw(st.floats(1e-3, max_pump)),
        herald_eff=draw(herald_effs),
        stage_transmission=draw(st.floats(0.5, 1.0)),
        optics_transmission=draw(st.floats(0.05, 1.0)),
    )


def close(got, expected):
    return got == pytest.approx(expected, rel=RTOL, abs=ATOL)


def enumerated(params: MuxParams, survival: float = 1.0) -> list[float]:
    # A cut 20 + 6 mu photons leaves a Poisson tail below 1e-25 for mu <= 2.
    return enumerate_mux_output(
        params.stages,
        params.pair_mean,
        params.herald_eff,
        params.stage_transmission,
        params.optics_transmission * survival,
        n_cut=20 + int(6 * params.pair_mean),
    )


def mean_and_variance(probs, survival: float = 1.0) -> tuple[float, float]:
    mean, second = thinned_count_moments(probs, survival)
    return mean, second - mean * mean


def assert_rows_close(got, expected):
    n = max(len(got), len(expected))
    padded = np.zeros((2, n))
    padded[0, : len(got)] = got
    padded[1, : len(expected)] = expected
    np.testing.assert_allclose(padded[0], padded[1], rtol=0, atol=1e-12)


class TestAgainstPmfPipeline:
    @CHECKS
    @given(mux_params(), survivals)
    def test_multiplexed(self, params, survival):
        src = Multiplexed(params)
        row = mux_output_rows(params, params.pair_mean, 1.0, 1e-18)
        mean, variance = mean_and_variance(row)
        got = source_moments(src)
        assert close(got.mean, mean)
        assert close(got.variance, variance)
        expected_click = enumerate_click_probability(row, survival)
        assert close(source_click_probability(src, survival), expected_click)
        detected_mean, detected_variance = mean_and_variance(row, survival)
        got_detected = nr_detected_moments(got, Channel(survival, 1.0))
        assert close(got_detected.mean, detected_mean)
        assert close(got_detected.variance, detected_variance)

    @CHECKS
    @given(st.floats(1e-3, 20.0), survivals)
    def test_coherent(self, mean, survival):
        src = Coherent(mean)
        probs = poisson_probs(mean, 120)
        expected_mean, expected_variance = mean_and_variance(probs)
        got = source_moments(src)
        assert close(got.mean, expected_mean)
        assert close(got.variance, expected_variance)
        expected_click = enumerate_click_probability(probs, survival)
        assert close(source_click_probability(src, survival), expected_click)

    @CHECKS
    @given(st.integers(0, 30), survivals)
    def test_fock(self, photons, survival):
        src = Fock(photons)
        got = source_moments(src)
        assert got.mean == photons and got.variance == 0.0
        # At least one of the photons survives; a sum of positive terms, exact
        # also where 1 - (1 - survival)**photons would cancel.
        expected_click = sum(
            math.comb(photons, k) * survival**k * (1.0 - survival) ** (photons - k)
            for k in range(1, photons + 1)
        )
        assert close(source_click_probability(src, survival), expected_click)


class TestAgainstEnumeration:
    @ORACLE_CHECKS
    @given(mux_params(max_pump=2.0), survivals)
    def test_multiplexed(self, params, survival):
        probs = enumerated(params)
        mean = sum(n * p for n, p in enumerate(probs))
        variance = sum((n - mean) ** 2 * p for n, p in enumerate(probs))
        src = Multiplexed(params)
        got = source_moments(src)
        assert close(got.mean, mean)
        assert close(got.variance, variance)
        expected_click = enumerate_click_probability(probs, survival)
        assert close(source_click_probability(src, survival), expected_click)

    @ORACLE_CHECKS
    @given(mux_params(max_pump=2.0, max_stages=4), survivals)
    def test_multiplexed_rows(self, params, survival):
        assert_rows_close(mux_output_rows(params, params.pair_mean, 1.0, 1e-18), enumerated(params))
        rows = mux_output_rows(params, params.pair_mean, survival, 1e-18)
        assert_rows_close(rows, enumerated(params, survival))


class TestEdges:
    def test_click_probability_exactly_zero_without_survival(self):
        for src in (Coherent(0.7), Fock(3), Multiplexed(MuxParams(stages=4, pair_mean=0.3))):
            assert source_click_probability(src, 0.0) == 0.0

    def test_vacuum_sources(self):
        for src in (
            Coherent(0.0),
            Fock(0),
            Multiplexed(MuxParams(stages=2, pair_mean=0.0)),
            Multiplexed(MuxParams(stages=2, pair_mean=0.5, herald_eff=0.0)),
        ):
            got = source_moments(src)
            assert got.mean == 0.0 and got.variance == 0.0 and got.fano is None
            assert source_click_probability(src, 1.0) == 0.0

    @pytest.mark.parametrize("herald_eff", [0.8, 1.0])
    def test_strong_pump_row_finite_and_normalized(self, herald_eff):
        """At mu * herald_eff = 40 the per-window herald probability rounds
        to 1; the row stays finite, non-negative and normalized."""
        params = MuxParams(stages=2, pair_mean=40.0 / herald_eff, herald_eff=herald_eff)
        row = mux_output_rows(params, params.pair_mean, 0.72, 1e-18)
        assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        mean = float(np.arange(row.size) @ row)
        expected = source_moments(Multiplexed(params)).mean * 0.72
        assert mean == pytest.approx(expected, rel=1e-12)


class TestTuning:
    @CHECKS
    @given(mux_params(), st.floats(1e-4, 20.0))
    def test_residual_below_tolerance(self, params, target):
        tol = 1e-10
        mu = tune_pair_mean(params, target, tol=tol)
        achieved = source_moments(Multiplexed(replace(params, pair_mean=mu))).mean
        assert abs(achieved - target) < tol
