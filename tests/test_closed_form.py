"""Closed-form source moments, click probabilities and photon-number
distributions, cross-checked over randomized parameters against the PMF
pipeline and the window-by-window enumeration oracle.

Both references build the full photon-number distribution and sum over it;
the closed-form moments must agree with them to 1e-12 relative (absolute
floor 1e-15) everywhere in the sampled region, edges included: perfect
heralding, survival 0 and 1, and up to 10 delay stages (1024 windows).  The
closed-form distribution rows must match the enumeration entry by entry to
1e-12 absolute.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import enumerate_click_probability, enumerate_mux_output
from subshot.detection import Channel, click_probability, nr_detected_moments, nr_detected_pmf
from subshot.pmf import moments
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    mux_output_pmf,
    mux_output_rows,
    source_click_probability,
    source_moments,
    source_pmf,
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
        pmf = mux_output_pmf(params)
        expected = moments(pmf)
        got = source_moments(src)
        assert close(got.mean, expected.mean)
        assert close(got.variance, expected.variance)
        channel = Channel(survival, 1.0)
        assert close(source_click_probability(src, survival), click_probability(pmf, channel))
        detected = moments(nr_detected_pmf(pmf, channel))
        got_detected = nr_detected_moments(got, channel)
        assert close(got_detected.mean, detected.mean)
        assert close(got_detected.variance, detected.variance)

    @CHECKS
    @given(st.floats(1e-3, 20.0), survivals)
    def test_coherent(self, mean, survival):
        src = Coherent(mean)
        expected = moments(source_pmf(src))
        got = source_moments(src)
        assert close(got.mean, expected.mean)
        assert close(got.variance, expected.variance)
        expected_click = click_probability(source_pmf(src), Channel(survival, 1.0))
        assert close(source_click_probability(src, survival), expected_click)

    @CHECKS
    @given(st.integers(0, 30), survivals)
    def test_fock(self, photons, survival):
        src = Fock(photons)
        got = source_moments(src)
        assert got.mean == photons and got.variance == 0.0
        expected_click = click_probability(source_pmf(src), Channel(survival, 1.0))
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
        assert_rows_close(mux_output_pmf(params).probs, enumerated(params))
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
