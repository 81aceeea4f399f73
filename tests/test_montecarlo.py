"""Monte Carlo engine: exact-report validation, reproducibility, the
total-count distribution it samples, the pump-fluctuation study machinery
and the exact MSE it samples."""

import collections
import functools
import math
import time
import tracemalloc
from dataclasses import replace
from statistics import NormalDist
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from _oracles import (
    _invert_cdf,
    _total_count_row,
    enumerate_click_probability,
    enumerate_mux_output,
    gaussian_pump_nodes,
    legendre_rule,
    nr_mse_fluctuating_pump,
    per_repetition_totals,
    per_round_totals,
    poisson_probs,
    poisson_support_walk,
    round_total_law,
    sync_probability,
    thinned_count_moments,
    thinned_probs,
    threshold_mse_fluctuating_pump,
    total_count_law,
)
from subshot import montecarlo, pmf
from subshot import sources as source_models
from subshot.detection import Channel, detected_log_pgf, detected_moments, detected_row_plan
from subshot.estimators import Detector, exact_report, reference_mean
from subshot.experiments import MAX_FORMED_ENTRIES, MAX_HELD_FLOATS
from subshot.montecarlo import (
    MAX_TRIALS,
    NEGATIVES,
    REDRAWS,
    FluctuationConfig,
    McEstimate,
    _BLOCK_FLOATS,
    _LEGENDRE_NODES,
    _LEGENDRE_WEIGHTS,
    _averaged_rows,
    _row_lengths,
    _round_streams,
    _round_totals,
    _sample_moments,
    _total_count_pmf,
    fluctuation_mse,
    fluctuation_study,
    mc_estimate,
    pump_nodes,
    study_footprint,
    total_footprint,
)
from subshot.sources import (
    CHERNOFF_POINTS,
    ROW_TAIL,
    Coherent,
    ConfigError,
    CountRows,
    Fock,
    Multiplexed,
    count_window,
    make_multiplexed,
    source_click_probabilities,
    source_log_pgf,
    source_moments,
    source_pump,
)

CH = Channel(0.8, 0.9)

# Fixed example sequence: the suite stays deterministic and writes no
# example database.
CHECKS = settings(derandomize=True, database=None, deadline=None)
SOURCE_KINDS = ("coherent", "fock", "multiplexed")
# A vacuum source and a blind detector leave a zero reference, and the two
# tiny sources one whose square underflows.
ZERO_REFERENCE = pytest.mark.parametrize(
    "source, channel",
    [
        (Coherent(0.0), CH),
        (Coherent(1.0), Channel(0.5, 0.0)),
        (Coherent(1e-200), Channel(0.5)),
        (Coherent(1e-170), Channel(0.5)),
    ],
    ids=["vacuum-source", "blind-detector", "reference-1e-200", "reference-1e-170"],
)


@st.composite
def sources(draw, kinds=SOURCE_KINDS, fock_max=25, mean_max=5.0):
    kind = draw(st.sampled_from(kinds))
    if kind == "fock":
        return Fock(draw(st.integers(1, fock_max)))
    mean = draw(st.floats(0.1, mean_max))
    if kind == "coherent":
        return Coherent(mean)
    return make_multiplexed(draw(st.integers(1, 6)), mean)


# Every (source, detector) pair of a fluctuations run at two sources.
STUDY_PAIRS = [(src, det) for det in Detector for src in (Coherent(0.5), make_multiplexed(3, 0.5))]


def _cdfs(rows):
    """The CDFs `_round_totals` searches: each row's cumulative sums but
    the last."""
    return np.cumsum(rows[..., :-1], axis=-1)


def _study(cfg, source, detector, channel, seed):
    """`fluctuation_study` of the one pair (source, detector)."""
    return fluctuation_study(cfg, [(source, detector)], channel, seed)[0]


def reset_log_factorials():
    """Start the process's one log-factorial table afresh, as a new process
    starts it."""
    pmf._log_factorial_table = np.empty(0)


def row_moments(offset, row):
    counts = offset + np.arange(row.size)
    mean = float((counts * row).sum() / row.sum())
    return mean, float(((counts - mean) ** 2 * row).sum() / row.sum())


class TestMcEstimate:
    def test_perfect_fock_channel_has_zero_error(self):
        perfect = Channel(1.0, 1.0)
        res = mc_estimate(Fock(1), Detector.NUMBER_RESOLVING, perfect, 50, trials=2000, seed=1)
        assert res.expectation == 1.0
        assert res.mse == 0.0

    def test_coherent_nr_matches_exact_report(self):
        res = mc_estimate(Coherent(1.0), Detector.NUMBER_RESOLVING, CH, 200, 100_000, seed=2)
        exact = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, CH, 200)
        assert abs(res.expectation - exact.expectation) < 4 * res.expectation_se
        assert abs(res.mse - exact.mse) < 4 * res.mse_se

    def test_multiplexed_threshold_matches_exact_report(self):
        src = make_multiplexed(2, 1.0)
        ch = Channel(0.9, 0.9)
        res = mc_estimate(src, Detector.THRESHOLD, ch, 200, trials=100_000, seed=3)
        exact = exact_report(src, Detector.THRESHOLD, ch, 200)
        assert abs(res.expectation - exact.expectation) < 4 * res.expectation_se
        assert abs(res.mse - exact.mse) < 4 * res.mse_se

    @pytest.mark.parametrize("trials", [1, MAX_TRIALS])
    def test_one_point_row_is_exact(self, trials):
        """Fock(1) over a perfect channel detects nu photons in every trial,
        so the one populated total holds all trials."""
        perfect = Channel(1.0, 1.0)
        res = mc_estimate(Fock(1), Detector.NUMBER_RESOLVING, perfect, 50, trials, seed=1)
        assert res == McEstimate(expectation=1.0, expectation_se=0.0, mse=0.0, mse_se=0.0)

    @pytest.mark.parametrize("detector", list(Detector))
    def test_single_trial_is_one_total(self, detector):
        source, nu = Coherent(1.0), 20
        res = mc_estimate(source, detector, CH, nu, trials=1, seed=4)
        total = res.expectation * nu * reference_mean(source, detector, CH.detector_eff)
        assert total == pytest.approx(round(total), abs=1e-9)
        assert res.mse == pytest.approx((res.expectation - CH.transmission) ** 2, rel=1e-12)
        assert res.expectation_se == res.mse_se == 0.0

    @CHECKS
    @given(
        source=sources(),
        detector=st.sampled_from(list(Detector)),
        survival=st.floats(0.0, 1.0),
        nu=st.integers(1, 1000),
        trials=st.one_of(st.integers(1, 10**6), st.just(MAX_TRIALS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_histogram_counts_sum_to_trials(self, source, detector, survival, nu, trials, seed):
        """Every total-count row is a valid multinomial distribution: the
        histogram `mc_estimate` draws from it places each trial once."""
        _, probs = _total_count_pmf(source, detector, survival, nu)
        counts = np.random.default_rng(seed).multinomial(trials, probs)
        assert counts.shape == probs.shape
        assert (counts >= 0).all()
        assert int(counts.sum()) == trials

    def test_memory_does_not_grow_with_trials(self):
        """Ten million trials are one histogram of a few hundred totals; one
        uniform per trial would allocate 80 MB."""
        tracemalloc.start()
        try:
            mc_estimate(Coherent(1.0), Detector.NUMBER_RESOLVING, CH, 200, 10**7, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_deterministic_per_seed(self):
        a = mc_estimate(Coherent(0.5), Detector.NUMBER_RESOLVING, CH, 50, trials=5000, seed=9)
        b = mc_estimate(Coherent(0.5), Detector.NUMBER_RESOLVING, CH, 50, trials=5000, seed=9)
        assert a == b

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            mc_estimate(Coherent(0.5), Detector.NUMBER_RESOLVING, CH, 50, trials=0, seed=0)

    def test_trials_beyond_int64_named(self):
        with pytest.raises(ConfigError, match="trials"):
            mc_estimate(Coherent(0.5), Detector.THRESHOLD, CH, 50, MAX_TRIALS + 1, seed=0)

    @pytest.mark.parametrize("nu", [0, -3, 2.5])
    def test_invalid_nu_rejected(self, nu):
        with pytest.raises(ValueError, match="nu"):
            mc_estimate(Coherent(0.5), Detector.THRESHOLD, CH, nu, trials=10, seed=0)

    def test_integral_float_counts_accepted(self):
        args = (Coherent(0.5), Detector.NUMBER_RESOLVING, CH)
        assert mc_estimate(*args, 20.0, 10, 0) == mc_estimate(*args, 20, 10, 0)
        cfg = FluctuationConfig(a_grid=(0.3,), rounds=4.0, nu=20.0)
        assert (cfg.rounds, cfg.nu) == (4, 20)
        assert _study(cfg, *args, 0) == _study(
            FluctuationConfig(a_grid=(0.3,), rounds=4, nu=20), *args, 0
        )

    @pytest.mark.parametrize("detector", list(Detector))
    @ZERO_REFERENCE
    def test_zero_reference_rejected(self, source, channel, detector):
        with pytest.raises(ValueError, match="reference must be > 0"):
            mc_estimate(source, detector, channel, 50, trials=10, seed=0)


@CHECKS
@given(
    pairs=st.lists(
        st.tuples(st.floats(0.0, 10.0), st.integers(0, 50)), min_size=1, max_size=20
    ).filter(lambda pairs: sum(count for _, count in pairs) >= 1)
)
@example(pairs=[(0.7, 1)])
@example(pairs=[(0.3, 0), (0.7, 1), (0.9, 0)])
@example(pairs=[(0.64, 7)])
def test_sample_moments_match_the_expanded_sample(pairs):
    """The histogram moments are the mean and std (ddof 1, or 0 for a single
    draw) of the sample that repeats each value its count times."""
    values, counts = (np.array(column) for column in zip(*pairs))
    sample = np.repeat(values, counts)
    mean, sd = _sample_moments(values, counts)
    scale = 1e-12 * max(values.max(), 1e-300)
    assert mean == pytest.approx(sample.mean(), rel=1e-12, abs=scale)
    assert sd == pytest.approx(sample.std(ddof=1 if sample.size > 1 else 0), rel=1e-12, abs=scale)


class TestTotalCountRow:
    """The reference for the law of the total count over nu repetitions:
    `_total_count_row` (tests/_oracles.py), the nu-fold convolution power of
    the detected-count row by repeated squaring with trimmed tails."""

    @CHECKS
    @given(
        source=sources(),
        survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        nu=st.integers(1, 1000),
    )
    def test_moments_add_over_repetitions(self, source, survival, nu):
        row = CountRows(source, survival).rows()
        offset, total = _total_count_row(row, nu)
        assert (total >= 0.0).all()
        assert total.sum() == pytest.approx(1.0, abs=1e-12)
        mean, variance = row_moments(0, row)
        got_mean, got_variance = row_moments(offset, total)
        assert got_mean == pytest.approx(nu * mean, rel=1e-12, abs=1e-15)
        assert got_variance == pytest.approx(nu * variance, rel=1e-12, abs=1e-15)

    # The plain power and `_total_count_row` sum products of the same row.
    # They differ by the tails `_trim_tails` drops, each below ROW_TAIL =
    # 1e-18, and by its renormalization of each product, which moves an
    # entry by its own size times the rounding in the row's sum; in the
    # plain power that rounding grows like nu * 1.1e-16 (its sums are off
    # by up to 4e-15 at nu = 20).  The largest |dP| measured over these
    # cases is 6.9e-16, at survival 0.3 and nu = 20.
    LAW_ATOL = 2e-15

    @pytest.mark.parametrize("nu", [1, 2, 3, 7, 20])
    @pytest.mark.parametrize("survival", [0.3, 0.72])
    @pytest.mark.parametrize(
        "source, detector",
        [
            (Coherent(1.0), Detector.NUMBER_RESOLVING),
            (Fock(1), Detector.NUMBER_RESOLVING),
            (make_multiplexed(3, 1.0), Detector.NUMBER_RESOLVING),
            (make_multiplexed(3, 1.0), Detector.THRESHOLD),
        ],
        ids=["coherent", "fock-1", "multiplexed", "multiplexed-clicks"],
    )
    def test_law_is_the_plain_convolution_power(self, source, detector, survival, nu):
        """The whole law `mc_estimate` samples from, not only its moments,
        against the untrimmed nu-fold `np.convolve` power of the row."""
        row = detected_row_plan(source, detector, survival).rows()
        offset, total = _total_count_row(row, nu)
        law = total_count_law(row, nu)
        got = np.zeros(law.size)
        got[offset:offset + total.size] = total
        assert np.abs(got - law).max() <= self.LAW_ATOL

    def test_single_repetition_is_the_row(self):
        """One repetition's total is the row less the tail `_trim_tails`
        drops, at most `ROW_TAIL`, renormalized."""
        row = CountRows(Coherent(1.0), 0.72).rows()
        offset, total = _total_count_row(row, 1)
        assert offset == 0 and 0.0 < row[total.size :].sum() <= ROW_TAIL
        kept = row[: total.size]
        np.testing.assert_allclose(total, kept / kept.sum(), rtol=1e-15, atol=0.0)

    def test_degenerate_row_stays_a_point(self):
        offset, total = _total_count_row(CountRows(Fock(3), 1.0).rows(), 200)
        assert (offset, total.tolist()) == (600, [1.0])


def aligned(*laws):
    """Laws given as (offset, probs), as arrays on one count axis."""
    start = min(offset for offset, _ in laws)
    stop = max(offset + probs.size for offset, probs in laws)
    out = np.zeros((len(laws), stop - start))
    for row, (offset, probs) in zip(out, laws):
        row[offset - start : offset - start + probs.size] = probs
    return out


class TestTotalCountPmf:
    """`mc_estimate` samples the total count over nu repetitions from
    `_total_count_pmf`, the inverse FFT of the closed-form generating
    function, checked against the direct power `_total_count_row`, the
    plain power `total_count_law` and nu times `detected_moments`."""

    # Measured over 10000 random totals against `_total_count_row`: the
    # three sources, both detectors, survivals 0, 1, uniform, and
    # log-uniform down to 2**-60 from 0 and 2**-52 from 1, nu <= 1e4.  The inversion rounds at about eps of
    # the peak.  Where the total is nearly a point mass (a click, or every
    # photon of a Fock state, all but certain to be counted), |G^nu| stays
    # near 1 all round the circle, and the rounding of its phase nu arg G,
    # of order theta times the total's mean times eps, reaches every entry.
    # So each bound has a term in eps * max(nu, mean), the `scale` below.
    # The largest errors were |dCDF| = 1e-14 + 1.9 scale, |dmean| = 1e-12
    # mean + 11 scale and |dV| = 1e-9 V + 53 scale.
    CDF_ATOL, CDF_SCALES = 1e-14, 8.0
    MEAN_RTOL, MEAN_SCALES = 1e-12, 32.0
    VAR_RTOL, VAR_SCALES = 1e-9, 256.0

    @CHECKS
    @given(
        source=sources(),
        detector=st.sampled_from(list(Detector)),
        survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        nu=st.integers(1, 10**4),
    )
    @example(source=Coherent(30.0), detector=Detector.THRESHOLD, survival=0.72, nu=200)
    def test_law_matches_the_direct_power_and_the_moments(self, source, detector, survival, nu):
        offset, total = _total_count_pmf(source, detector, survival, nu)
        row = detected_row_plan(source, detector, survival).rows()
        got, want = aligned((offset, total), _total_count_row(row, nu))
        exact = detected_moments(source, detector, survival)
        mean, variance = nu * exact.mean, nu * exact.variance
        scale = np.finfo(np.float64).eps * max(nu, mean)
        assert (total >= 0.0).all() and total[0] > 0.0 and total[-1] > 0.0
        assert total.sum() == pytest.approx(1.0, abs=4 * np.finfo(np.float64).eps)
        cdf_error = np.abs(np.cumsum(got) - np.cumsum(want)).max()
        assert cdf_error <= self.CDF_ATOL + self.CDF_SCALES * scale
        got_mean, got_variance = row_moments(offset, total)
        assert abs(got_mean - mean) <= self.MEAN_RTOL * mean + self.MEAN_SCALES * scale
        assert abs(got_variance - variance) <= self.VAR_RTOL * variance + self.VAR_SCALES * scale

    # The largest |dP| against the plain power over these cases is 6.9e-16.
    LAW_ATOL = 2e-15

    @pytest.mark.parametrize("nu", [1, 2, 3, 7, 20])
    @pytest.mark.parametrize("survival", [0.3, 0.72])
    @pytest.mark.parametrize(
        "source, detector",
        [
            (Coherent(1.0), Detector.NUMBER_RESOLVING),
            (Fock(1), Detector.NUMBER_RESOLVING),
            (make_multiplexed(3, 1.0), Detector.NUMBER_RESOLVING),
            (make_multiplexed(3, 1.0), Detector.THRESHOLD),
        ],
        ids=["coherent", "fock-1", "multiplexed", "multiplexed-clicks"],
    )
    def test_law_is_the_plain_convolution_power(self, source, detector, survival, nu):
        law = total_count_law(detected_row_plan(source, detector, survival).rows(), nu)
        got, want = aligned(_total_count_pmf(source, detector, survival, nu), (0, law))
        assert np.abs(got - want).max() <= self.LAW_ATOL

    @pytest.mark.parametrize(
        "source, detector, survival, point",
        [
            (Fock(3), Detector.NUMBER_RESOLVING, 1.0, 600),
            (Fock(3), Detector.THRESHOLD, 1.0, 200),
            (Coherent(800.0), Detector.THRESHOLD, 1.0, 200),  # e^-800 rounds to 0: p = 1
            (Coherent(1.0), Detector.THRESHOLD, 0.0, 0),  # p = 0
            (make_multiplexed(2, 1.0), Detector.NUMBER_RESOLVING, 0.0, 0),
        ],
        ids=["fock-all-detected", "fock-clicks", "certain-click", "no-click", "all-lost"],
    )
    def test_degenerate_total_stays_a_point(self, source, detector, survival, point):
        offset, total = _total_count_pmf(source, detector, survival, 200)
        assert (offset, total.tolist()) == (point, [1.0])

    # Where a click is all but certain (p = 1 - 4.2e-10 here), |G^nu| stays
    # near 1 round the whole circle, so the rounding of the phase nu arg G
    # puts noise of 2e-14 (nu = 200) to 1e-10 (nu = 1e6) in every entry,
    # which entries far from the mean weigh by (k - mean)^2.  On a window of
    # 64 counts with a floor of 1e-15 of the peak, the variance came out
    # 3.7e-4 to 4.6e-4 off; on the Chernoff window (4 to 16 counts) with
    # that floor, up to 1.6e-5 off.  With the floor at 4 times the most
    # negative entry, up to 1.1e-6, the rounding of 1 - p in p.
    NEAR_CERTAIN_RTOL = 4e-6

    @pytest.mark.parametrize("nu", [200, 10**4, 10**6])
    @pytest.mark.parametrize("source", [Coherent(30.0), make_multiplexed(5, 30.0)],
                             ids=["coherent", "multiplexed"])
    def test_near_certain_clicks_keep_their_variance(self, source, nu):
        exact = detected_moments(source, Detector.THRESHOLD, 0.72)
        mean, variance = row_moments(*_total_count_pmf(source, Detector.THRESHOLD, 0.72, nu))
        assert variance == pytest.approx(nu * exact.variance, rel=self.NEAR_CERTAIN_RTOL)

    @pytest.mark.parametrize("source", [Coherent(1.0), make_multiplexed(2, 1.0)])
    def test_million_repetitions_build_quickly(self, source):
        """The window spans the Chernoff bounds, ~sqrt(nu) counts, not
        nu * mean."""
        start = time.perf_counter()
        offset, total = _total_count_pmf(source, Detector.NUMBER_RESOLVING, 0.72, 10**6)
        assert time.perf_counter() - start < 2.0
        exact = detected_moments(source, Detector.NUMBER_RESOLVING, 0.72)
        assert total.size < 20 * math.sqrt(10**6 * exact.variance)
        assert row_moments(offset, total)[0] == pytest.approx(10**6 * exact.mean, rel=1e-12)

    # At nu = 1e8 the sums were within 2.2e-16 of 1, the means within 4.4e-16
    # and the variances within 2.1e-11 (relative).
    @pytest.mark.parametrize("detector", list(Detector))
    @pytest.mark.parametrize("source", [Coherent(1.0), make_multiplexed(2, 1.0)])
    def test_hundred_million_repetitions(self, source, detector):
        offset, total = _total_count_pmf(source, detector, 0.72, 10**8)
        exact = detected_moments(source, detector, 0.72)
        mean, variance = row_moments(offset, total)
        assert total.sum() == pytest.approx(1.0, abs=1e-15)
        assert mean == pytest.approx(10**8 * exact.mean, rel=1e-14)
        assert variance == pytest.approx(10**8 * exact.variance, rel=1e-10)

    # The weakest herald `mc-validate` accepts at nu = 200 (6.5e-11 is
    # refused), whose rows span bursts of ~3.6e4 (m = 2) and ~1e4 (m = 5)
    # counts: the totals of two and three bursts lie 31 and 47 standard
    # deviations up, where a window sized from the variance would wrap them
    # in.  The mass that the peak floor zeroes in the far bursts leaves the
    # mean 4.1e-10 and the variance 1.5e-9 low (relative).
    @pytest.mark.parametrize("stages", [2, 5])  # the canned mc-validate networks
    def test_weak_herald_bursts_are_not_wrapped(self, stages):
        source = make_multiplexed(stages, 1.0, herald_eff=7e-11)
        exact = detected_moments(source, Detector.NUMBER_RESOLVING, 0.72)
        total = _total_count_pmf(source, Detector.NUMBER_RESOLVING, 0.72, 200)
        mean, variance = row_moments(*total)
        assert mean == pytest.approx(200 * exact.mean, rel=2e-9)
        assert variance == pytest.approx(200 * exact.variance, rel=6e-9)


@CHECKS
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 8)),
    mass=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
def test_round_totals_sum_the_inverse_cdf_draws(data, shape, mass):
    """A per-round total is the sum of the `_invert_cdf` draws of the
    round's uniforms, also for rows whose CDF ends below 1 (the draw is
    capped at the last count) and for uniforms that equal a CDF value."""
    weights = st.lists(st.floats(0.0, 1.0), min_size=shape[1], max_size=shape[1])
    rows = np.array(data.draw(st.lists(weights, min_size=shape[0], max_size=shape[0])))
    rows *= mass / np.maximum(rows.sum(axis=-1, keepdims=True), 1e-300)
    on_cdf = st.sampled_from(np.cumsum(rows, axis=-1).ravel().tolist())
    uniforms = st.one_of(st.floats(0.0, 1.0, exclude_max=True), on_cdf)
    u = np.array(data.draw(st.lists(uniforms, min_size=1, max_size=60)))
    want = [int(_invert_cdf(0, row, u).sum()) for row in rows]
    assert _round_totals([_cdfs(rows[None])], np.sort(u)[None])[0].tolist() == want


@settings(CHECKS, max_examples=40)
@given(
    data=st.data(),
    rounds=st.integers(1, 4),
    n_a=st.integers(1, 3),
    length=st.integers(1, 30),
    nu=st.integers(1, 30),
    shared=st.booleans(),
    mass=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
def test_round_totals_search_from_either_side(data, rounds, n_a, length, nu, shared, mass):
    """Rows longer than the uniforms are counted by searching each uniform
    in the CDF, shorter ones by searching each CDF entry in the uniforms;
    both give the sums of the `_invert_cdf` draws, for rows of their own per
    round and for rows every round shares, with uniforms on CDF values."""
    n_rows = (1 if shared else rounds) * n_a
    weights = st.lists(st.floats(0.0, 1.0), min_size=length, max_size=length)
    rows = np.array(data.draw(st.lists(weights, min_size=n_rows, max_size=n_rows)))
    rows = rows.reshape(-1, n_a, length)
    rows *= mass / np.maximum(rows.sum(axis=-1, keepdims=True), 1e-300)
    on_cdf = st.sampled_from(np.cumsum(rows, axis=-1).ravel().tolist())
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), on_cdf)
    uniforms = st.lists(uniform, min_size=nu, max_size=nu)
    u = np.sort(data.draw(st.lists(uniforms, min_size=rounds, max_size=rounds)), axis=-1)
    want = [
        [int(_invert_cdf(0, row, u_r).sum()) for row in rows[0 if shared else r]]
        for r, u_r in enumerate(u)
    ]
    assert _round_totals([_cdfs(rows)], u).tolist() == want


@pytest.mark.parametrize("redraw", REDRAWS)
@settings(CHECKS, max_examples=15)
# Rows of ~120-170 counts against 5 uniforms, and of 2 clicks against 40,
# where round 0 resamples its pump.
@example(
    source=Coherent(150.0), detector=Detector.NUMBER_RESOLVING, a_grid=(0.0, 0.3), rounds=3,
    nu=5, negatives="clamp", seed=4,
)
@example(
    source=make_multiplexed(2, 1.5), detector=Detector.THRESHOLD, a_grid=(0.6,), rounds=2,
    nu=40, negatives="resample", seed=8,
)
@given(
    source=sources(kinds=("coherent", "multiplexed"), mean_max=150.0),
    detector=st.sampled_from(list(Detector)),
    a_grid=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=3).map(tuple),
    rounds=st.integers(2, 4),
    nu=st.integers(1, 200),
    negatives=st.sampled_from(NEGATIVES),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_totals_match_the_round_by_round_references(
    redraw, source, detector, a_grid, rounds, nu, negatives, seed
):
    """`_round_totals` of the engine's streams and rows, with rows longer or
    shorter than nu, gives the totals of `per_round_totals` (one round's rows
    at a time) and `per_repetition_totals` (the rows every round shares)."""
    survival, pump = 0.72, source_pump(source)
    cfg = FluctuationConfig(a_grid, rounds, nu, redraw, negatives)
    x, u = _round_streams(cfg, seed, 0, rounds)
    plan = detected_row_plan(source, detector, survival)
    if redraw == "per-round":
        got = [_round_totals([_cdfs(plan.rows(pump * x_r)[None])], u_r[None])[0]
               for x_r, u_r in zip(x, u)]
        want = per_round_totals(plan.rows, pump, a_grid, rounds, nu, negatives, seed)
    else:
        nodes = pump_nodes(a_grid, negatives)
        (length,) = _row_lengths(cfg, [plan], [pump], nodes)
        got = _round_totals([_cdfs(_averaged_rows(plan, pump, nodes, length)[None])], u)
        want = per_repetition_totals(plan.rows, pump, nodes, rounds, nu, seed)
    assert np.array(got).T.tolist() == want.tolist()


@pytest.mark.parametrize("redraw", REDRAWS)
@settings(CHECKS, max_examples=40)
# Rounds 19 and 24 of 30 resample at a = 0.6, and round 19 at a = 0.5; the
# last of 8 blocks is short.
@example(
    pairs=STUDY_PAIRS, survival=0.72, a_grid=(0.0, 0.5, 0.6), rounds=30, nu=7,
    negatives="resample", seed=1, block=4,
)
# Per repetition, the coherent number-resolving rows at the nodes of a = 0,
# 0.2 and 0.4 share one call, longer than the rows of a = 0 and 0.2 alone,
# and a = 0.6 gets a call of its own; the other pairs build all four
# fractions in one call.
@example(
    pairs=STUDY_PAIRS, survival=0.5, a_grid=(0.0, 0.2, 0.4, 0.6), rounds=5, nu=300,
    negatives="clamp", seed=11, block=8,
)
@given(
    pairs=st.lists(
        st.tuples(
            sources(kinds=("coherent", "multiplexed"), mean_max=3.0),
            st.sampled_from(list(Detector)),
        ),
        min_size=1,
        max_size=3,
    ),
    survival=st.floats(0.05, 1.0),
    a_grid=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4).map(tuple),
    rounds=st.integers(2, 12),
    nu=st.integers(1, 300),
    negatives=st.sampled_from(NEGATIVES),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 4),
)
def test_batched_rounds_equal_the_round_by_round_reference(
    redraw, pairs, survival, a_grid, rounds, nu, negatives, seed, block
):
    """The round engine, which draws each block's streams once for every
    pair and evaluates a pair's per-round rows in one call of its row plan or
    its per-repetition rows once per run, gives exactly the totals of the
    round-by-round reference in both redraw modes.  The block budget is
    `block` rounds of uniforms, so blocks split mid-run and the last one may
    be short, and the count rows split into blocks of their own: per
    repetition, the rows at the pump nodes of several fractions share a call
    or split into calls of their own."""
    cfg = FluctuationConfig(a_grid, rounds, nu, redraw, negatives)
    nodes = pump_nodes(a_grid, negatives)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_BLOCK_FLOATS", block * nu)
        got = montecarlo._study_totals(cfg, pairs, survival, seed, nodes)
    for totals, (source, detector) in zip(got, pairs):
        pump = source_pump(source)

        def rows(mu):
            return detected_row_plan(source, detector, survival).rows(mu)

        if redraw == "per-round":
            want = per_round_totals(rows, pump, a_grid, rounds, nu, negatives, seed)
        else:
            want = per_repetition_totals(rows, pump, nodes, rounds, nu, seed)
        assert totals.tolist() == want.tolist()


def _pooled_chi_square(observed, expected, least=5.0) -> tuple[float, int]:
    """Pearson's chi-square of `observed` counts against `expected` ones and
    its degrees of freedom, adjacent bins pooled from the left until each
    expects at least `least` (the remainder joins the last bin)."""
    size = max(len(observed), len(expected))
    observed = np.pad(observed, (0, size - len(observed)))
    expected = np.pad(expected, (0, size - len(expected)))
    pooled, o, e = [], 0.0, 0.0
    for o_k, e_k in zip(observed, expected):
        o, e = o + o_k, e + e_k
        if e >= least:
            pooled.append([o, e])
            o, e = 0.0, 0.0
    pooled[-1][0] += o
    pooled[-1][1] += e
    o, e = np.array(pooled).T
    return float(((o - e) ** 2 / e).sum()), len(pooled) - 1


# The round-total law check: coherent light and a 5-stage multiplexed source
# at mean 0.5, both detectors of the multiplexed one, one seeded study per
# redraw x negatives mode.  Photon numbers are cut at 16: the largest pump
# node is 7x the tuned pump (3.5 coherent photons, 0.94 mux pairs), and no
# law loses more than 2.6e-13 of its mass to the cut.
LAW_PAIRS = [
    (Coherent(0.5), Detector.NUMBER_RESOLVING),
    (make_multiplexed(5, 0.5), Detector.NUMBER_RESOLVING),
    (make_multiplexed(5, 0.5), Detector.THRESHOLD),
]
LAW_A_GRID = (0.0, 0.3, 0.6)
LAW_CFG = {"a_grid": LAW_A_GRID, "rounds": 2000, "nu": 50}
# One chi-square statistic per (mode, pair, fraction); Bonferroni over all
# 4 x 3 x 3 = 36 of them keeps the family-wise false alarm rate at most 1e-3
# under any dependence between them (they share streams).
LAW_STATISTICS = len(REDRAWS) * len(NEGATIVES) * len(LAW_PAIRS) * len(LAW_A_GRID)
LAW_FAMILY_ALPHA = 1e-3


@functools.cache
def _law_output_probs(source):
    """Photon-number distribution of `source` at the sample at relative pump
    x, from the oracles, cut at 16 photons."""
    if isinstance(source, Coherent):
        return functools.cache(lambda x: poisson_probs(source.mean * x, 16))
    calibration = (source.herald_eff, source.stage_transmission, source.optics_transmission)
    return functools.cache(
        lambda x: enumerate_mux_output(source.stages, source.pair_mean * x, *calibration, 16)
    )


@pytest.mark.parametrize("redraw, negatives", [(r, n) for r in REDRAWS for n in NEGATIVES])
def test_round_totals_follow_the_exact_round_law(redraw, negatives):
    """Each fraction's round totals pass a pooled chi-square test against
    `round_total_law`, the oracle's exact law of a round's total: the whole
    law, not only the MSE, that the streams, pumps and rows of the engine
    give.  Each statistic must stay below the chi-square quantile at
    1 - LAW_FAMILY_ALPHA / LAW_STATISTICS of its degrees of freedom."""
    cfg = FluctuationConfig(**LAW_CFG, redraw=redraw, negatives=negatives)
    nodes = pump_nodes(cfg.a_grid, negatives)
    totals = montecarlo._study_totals(cfg, LAW_PAIRS, CH.survival, 2024, nodes)
    failed = []
    for pair_totals, (source, detector) in zip(totals, LAW_PAIRS):
        for a, round_totals in zip(cfg.a_grid, pair_totals):
            law = round_total_law(
                _law_output_probs(source), CH.survival, detector.value, cfg.nu, a, redraw, negatives
            )
            observed = np.bincount(round_totals.astype(np.int64))
            chi2, dof = _pooled_chi_square(observed, cfg.rounds * law)
            if chi2 > stats.chi2.isf(LAW_FAMILY_ALPHA / LAW_STATISTICS, dof):
                failed.append(f"{source}, {detector.value}, a = {a}: chi2 {chi2:.1f}, dof {dof}")
    assert not failed


# The exact-percentile band check: the round-law pairs, fractions and
# rounds, clamped pumps, one study per redraw mode.  Two one-sided binomial
# z-scores per band edge; Bonferroni over all 2 x 3 x 3 x 2 x 2 = 72 of them
# keeps the family-wise false alarm rate at most 1e-3 (normal approximation
# of binomial counts of 2000 rounds at probabilities 0.16 and 0.84).
BAND_Z_MAX = NormalDist().inv_cdf(
    1.0 - LAW_FAMILY_ALPHA / (len(REDRAWS) * len(LAW_PAIRS) * len(LAW_A_GRID) * 2 * 2)
)


def _binomial_z(count: int, trials: int, p: float) -> float:
    """(count - trials p) / sqrt(trials p (1 - p)); where p is 0 or 1 the
    count is certain, and any other count is infinitely far."""
    spread = math.sqrt(trials * p * (1.0 - p))
    if spread == 0.0:
        return 0.0 if count == trials * p else math.copysign(math.inf, count - trials * p)
    return (count - trials * p) / spread


@pytest.mark.parametrize("redraw", REDRAWS)
def test_bands_sit_at_the_exact_percentiles(redraw):
    """`ci_low` and `ci_high` estimate the 16th and 84th percentiles of the
    exact law of a round's squared error, (k / (nu ref) - t)^2 with k a
    round total of law `round_total_law`.  An edge c at percentile q lies
    between the order statistics of ranks i + 1 and i + 2 of the rounds,
    i = floor((rounds - 1) q), so at least i + 1 rounds fall at or below c
    and at most i + 1 strictly below it.  Each count is binomial, its
    probability P(sq_err <= c) or P(sq_err < c) taken from the discrete law,
    not q: an edge too low makes the first count improbably large, one too
    high the second improbably small.  Each z must stay within BAND_Z_MAX."""
    cfg = FluctuationConfig(**LAW_CFG, redraw=redraw)
    studies = fluctuation_study(cfg, LAW_PAIRS, CH, 2024)
    failed = []
    for (source, detector), summaries in zip(LAW_PAIRS, studies):
        scale = cfg.nu * reference_mean(source, detector, CH.detector_eff)
        for s in summaries:
            law = round_total_law(_law_output_probs(source), CH.survival, detector.value, cfg.nu,
                                  s.fluctuation, redraw, cfg.negatives)
            # With the bits `fluctuation_study` forms a round's error with.
            sq_err = (np.arange(law.size) / scale - CH.transmission) ** 2
            for q, edge in ((0.16, s.ci_low), (0.84, s.ci_high)):
                rank = math.floor((cfg.rounds - 1) * q) + 1
                too_low = _binomial_z(rank, cfg.rounds, law[sq_err <= edge].sum())
                too_high = -_binomial_z(rank, cfg.rounds, law[sq_err < edge].sum())
                if max(too_low, too_high) > BAND_Z_MAX:
                    failed.append(f"{source}, {detector.value}, a = {s.fluctuation}, q = {q}: "
                                  f"z {too_low:.2f} below, {too_high:.2f} above")
    assert not failed


# Examples per (source kind, detector) pair of the randomized Monte Carlo check.
MC_EXAMPLES = 10
# Two z-scores per example, Bonferroni-corrected to a family-wise error of
# 1e-3 over every example of every pair: |z| < 4.46.
MC_Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 2 * MC_EXAMPLES * 2 * len(SOURCE_KINDS)))


@pytest.mark.parametrize("detector", list(Detector))
@pytest.mark.parametrize("kind", SOURCE_KINDS)
@settings(CHECKS, max_examples=MC_EXAMPLES)
@given(
    data=st.data(),
    transmission=st.floats(0.05, 1.0),
    detector_eff=st.floats(0.5, 0.95),
    nu=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_reports_match_monte_carlo(
    kind, detector, data, transmission, detector_eff, nu, seed
):
    """Randomized cross-check of `exact_report` against `mc_estimate`.

    The rule for the bound was fixed before any example ran: a family-wise
    false-alarm rate of 1e-3, split by Bonferroni over every z-score the test
    computes (expectation and MSE, MC_EXAMPLES examples, each source kind
    with each detector).  The region keeps both count tails populated at 1e5 trials,
    so the z-scores are close to normal: at least ~250 expected non-zero
    totals (nu * mean * s >= 0.0025), no survival above 0.95, and Fock
    states of at most two photons, whose threshold detectors miss with
    probability >= 0.05^2.
    """
    source = data.draw(sources(kinds=(kind,), fock_max=2, mean_max=3.0))
    channel = Channel(transmission, detector_eff)
    mc = mc_estimate(source, detector, channel, nu, trials=100_000, seed=seed)
    exact = exact_report(source, detector, channel, nu)
    z_expectation = (mc.expectation - exact.expectation) / mc.expectation_se
    z_mse = (mc.mse - exact.mse) / mc.mse_se
    assert abs(z_expectation) < MC_Z_BOUND
    assert abs(z_mse) < MC_Z_BOUND


class TestBatchBuilders:
    """The count rows and click probabilities the fluctuation rounds evaluate
    on pump arrays must agree with the single-pump calls of `mc_estimate` and
    the exact reports, and with the window-by-window enumeration."""

    def test_count_rows_match_scalar_pipeline(self):
        src = Multiplexed(stages=3, pair_mean=0.27, herald_eff=0.8)
        rows = CountRows(src, CH.survival).rows(np.array([0.27]))
        np.testing.assert_array_equal(rows[0], CountRows(src, CH.survival).rows())
        expected = enumerate_mux_output(3, 0.27, 0.8, 0.88, 0.9 * CH.survival)
        n = min(rows.shape[1], len(expected))
        np.testing.assert_allclose(rows[0, :n], expected[:n], rtol=0, atol=1e-12)

    def test_click_probabilities_match_scalar_pipeline(self):
        src = Multiplexed(stages=2, pair_mean=0.4, herald_eff=0.7)
        got = source_click_probabilities(src, CH.survival, np.array([0.4, 0.1]))[1]
        assert got[0] == source_click_probabilities(src, CH.survival)[1]
        for mu, value in zip((0.4, 0.1), got):
            probs = enumerate_mux_output(2, mu, 0.7, 0.88, 0.9)
            assert value == pytest.approx(enumerate_click_probability(probs, CH.survival), abs=1e-12)

    def test_zero_pump_rows_are_vacuum(self):
        src = Multiplexed(stages=2, pair_mean=0.0, herald_eff=0.7)
        rows = CountRows(src, 0.72).rows(np.array([0.0]))
        assert rows[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert rows[0, 1:].sum() == pytest.approx(0.0, abs=1e-15)

    @CHECKS
    @given(
        source=sources(kinds=("coherent", "multiplexed")),
        survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        pumps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    )
    def test_pump_arrays_match_scalar_calls(self, source, survival, pumps):
        """Entry i of an array evaluation is the evaluation of the source
        running at pump i; the array's rows are longer only by the tail the
        largest pump needs."""
        mu = np.array(pumps)
        clicks = source_click_probabilities(source, survival, mu)[1]
        rows = CountRows(source, survival).rows(mu)
        assert clicks.shape == mu.shape and rows.shape[:-1] == mu.shape
        for pump, click, batch_row in zip(pumps, clicks, rows):
            at_pump = (
                Coherent(pump) if isinstance(source, Coherent) else replace(source, pair_mean=pump)
            )
            assert click == source_click_probabilities(at_pump, survival)[1]
            row = CountRows(at_pump, survival).rows()
            np.testing.assert_array_equal(batch_row[: row.size], row)
            # At most the discarded tail, up to rounding in its sum.
            assert batch_row[row.size :].sum() <= ROW_TAIL * (1.0 + 1e-12)

    @CHECKS
    @given(
        source=sources(kinds=("coherent", "multiplexed")),
        pumps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    )
    def test_pump_array_moments_match_scalar_calls(self, source, pumps):
        """The array path of `source_moments` agrees with the scalar path
        pump tuning uses, up to the last bits of expm1 and exp."""
        moments = source_moments(source, np.array(pumps))
        assert moments.mean.shape == moments.variance.shape == (len(pumps),)
        for pump, mean, variance in zip(pumps, moments.mean, moments.variance):
            at_pump = (
                Coherent(pump) if isinstance(source, Coherent) else replace(source, pair_mean=pump)
            )
            expected = source_moments(at_pump)
            assert mean == pytest.approx(expected.mean, rel=1e-14, abs=0.0)
            assert variance == pytest.approx(expected.variance, rel=1e-14, abs=1e-300)

    @CHECKS
    @given(
        source=sources(mean_max=60.0),
        detector=st.sampled_from(list(Detector)),
        survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        pumps=st.one_of(
            st.none(),
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 200.0)), min_size=1, max_size=5),
        ),
    )
    def test_length_is_the_row_length(self, source, detector, survival, pumps):
        """A plan's `length` is the last axis of its rows at the same pumps
        (the source's own for None), for both detectors, without a row
        built."""
        if isinstance(source, Fock) and pumps is not None:
            pumps = None
        mu = None if pumps is None else np.array(pumps)
        plan = detected_row_plan(source, detector, survival)
        assert plan.length(mu) == plan.rows(mu).shape[-1]  # length first: no row built

    @CHECKS
    @given(
        source=sources(kinds=("coherent", "multiplexed"), mean_max=60.0),
        survival=st.floats(0.0, 1.0),
        pump_arrays=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 200.0)), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        ),
        extra=st.integers(1, 300),
    )
    def test_plan_rows_are_the_rows_built_alone(self, source, survival, pump_arrays, extra):
        """Rows a `CountRows` plan builds after others, reading a prefix of
        the log-factorial table they grew, have the bits that a fresh plan
        gives from a fresh table.  Built `extra` counts longer, they hold
        those rows as a prefix, bit for bit, and at most `ROW_TAIL` past it."""
        reset_log_factorials()
        plan = CountRows(source, survival)
        for pumps in pump_arrays:
            mu = np.array(pumps)
            length = plan.length(mu)
            assert plan.length(mu * 0.5) <= length
            rows = plan.rows(mu)
            table = pmf._log_factorial_table
            reset_log_factorials()
            np.testing.assert_array_equal(rows, CountRows(source, survival).rows(mu))
            pmf._log_factorial_table = table
            longer = plan.rows(mu, length + extra)
            assert longer.shape == mu.shape + (length + extra,)
            np.testing.assert_array_equal(longer[..., :length], rows)
            assert (longer[..., length:].sum(axis=-1) <= ROW_TAIL * (1 + 1e-12)).all()

    @CHECKS
    @given(
        source=sources(mean_max=60.0),
        survival=st.floats(0.0, 1.0),
        pumps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 200.0)), min_size=1, max_size=4),
        extra=st.integers(1, 3000),
    )
    def test_rows_after_the_table_grew_are_the_rows_of_a_reset_table(
        self, source, survival, pumps, extra
    ):
        """Rows built once the one log-factorial table has grown to any
        longer length have the bits of the rows built from a reset table,
        for coherent, multiplexed and Fock sources and zero pumps."""
        mu = None if isinstance(source, Fock) else np.array(pumps)
        plan = CountRows(source, survival)
        reset_log_factorials()
        fresh = plan.rows(mu)
        pmf.log_factorials(fresh.shape[-1] + extra)
        np.testing.assert_array_equal(plan.rows(mu), fresh)

    def test_fock_source_takes_no_pump(self):
        with pytest.raises(TypeError):
            source_moments(Fock(1), np.array([0.3]))
        with pytest.raises(TypeError):
            source_click_probabilities(Fock(1), 0.5, np.array([0.3]))[1]
        with pytest.raises(TypeError):
            CountRows(Fock(1), 0.5).rows(0.3)
        with pytest.raises(TypeError):
            source_log_pgf(Fock(1), CHERNOFF_POINTS, 0.3)


class TestOneTailRule:
    """Every Monte Carlo count law is cut by one rule, `count_window`: its
    Chernoff edges at `ROW_TAIL`.  The rows of a `CountRows` plan end at the
    upper edge of one count (nu = 1), and the totals of `_total_count_pmf`
    lie between the edges of nu counts."""

    # Weak heralds that the command line runs at the default mean within the
    # Monte Carlo budgets (per round, per repetition, `mc-validate`), and a
    # stronger one.
    WEAK_HERALDS = (8.4e-13, 8.4e-11, 7e-11, 1e-9)

    @staticmethod
    def window(source, detector, survival, nu):
        """The window of `_total_count_pmf`."""
        return count_window(detected_log_pgf(source, detector, survival, CHERNOFF_POINTS), nu)

    @CHECKS
    @given(
        kind=st.sampled_from(SOURCE_KINDS),
        detector=st.sampled_from(list(Detector)),
        survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        pump=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
        stages=st.integers(1, 4),
        herald=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        photons=st.integers(0, 25),
        nu=st.integers(1, 1000),
    )
    def test_tails_past_the_window_are_at_most_row_tail(
        self, kind, detector, survival, pump, stages, herald, photons, nu
    ):
        """Below k0 and from top on, the oracle law of one count (Poisson,
        the window-by-window enumeration, Binomial), or of nu of them (its
        convolution power; Binomial(nu, p) for clicks), holds at most
        `ROW_TAIL`; at nu = 1, top is the plan's row length."""
        if kind == "coherent":
            source = Coherent(pump)
        elif kind == "fock":
            source = Fock(photons)
        else:
            source = Multiplexed(stages, pump / 10.0, herald_eff=herald)
        if detector is Detector.NUMBER_RESOLVING:
            nu = 1 + nu % 4
        k0, top = self.window(source, detector, survival, nu)
        if detector is Detector.THRESHOLD:
            p = source_click_probabilities(source, survival)[1]
            below, past = stats.binom.cdf(k0 - 1, nu, p), stats.binom.sf(top - 1, nu, p)
        else:
            if nu == 1:
                assert detected_row_plan(source, detector, survival).length() == (
                    photons + 1 if kind == "fock" else top
                )
            n_cut = top // nu + 60
            if kind == "coherent":
                row = poisson_probs(survival * pump, n_cut)
            elif kind == "fock":
                row = thinned_probs([0.0] * photons + [1.0], survival)
            else:
                row = enumerate_mux_output(stages, pump / 10.0, herald, source.stage_transmission,
                                           source.optics_transmission * survival, n_cut)
            law = total_count_law(np.array(row), nu)
            below, past = law[:k0].sum(), law[top:].sum()
        assert below <= ROW_TAIL and past <= ROW_TAIL

    @CHECKS
    @given(
        stages=st.sampled_from([3, 5]),
        herald=st.sampled_from(WEAK_HERALDS),
        relative_pump=st.one_of(st.just(0.0), st.floats(0.0, 7.0)),
        survival=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_weak_herald_rows_discard_at_most_row_tail(
        self, stages, herald, relative_pump, survival
    ):
        """Under a weak herald a row spans bursts of many pairs.  Past its
        length L the law holds g sum_{n >= L} Pois(n; lam) [1 - (1-h)^n
        e^{-a}], lam = mu q and a = mu h (1 - q), at most g [c lam P(N >= L
        - 1) + a P(N >= L)] with c = -log1p(-h), as 1 - e^{-x} <= x; that
        bound, from scipy's Poisson tail and the oracle `sync_probability`,
        is at most `ROW_TAIL`, and the plan's row at L sums to 1."""
        source = make_multiplexed(stages, 1.0, herald_eff=herald)
        mu = source.pair_mean * relative_pump
        length = CountRows(source, survival).length(np.array([mu]))
        q = source.stage_transmission**stages * source.optics_transmission * survival
        p_w = -math.expm1(-mu * herald)
        gain = sync_probability(stages, mu, herald) / p_w if p_w else 0.0
        lam, a = mu * q, mu * herald * (1.0 - q)
        bound = gain * (-math.log1p(-herald) * lam * stats.poisson.sf(length - 2, lam)
                        + a * stats.poisson.sf(length - 1, lam))
        assert bound <= ROW_TAIL
        row = CountRows(source, survival).rows(np.array([mu]))[0]
        assert row.size == length and math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    @CHECKS
    @given(mean=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(0.0, 7e4)),
           survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    def test_coherent_rows_are_the_walk_plus_a_measured_slack(self, mean, survival):
        """A coherent row ends at most 2 max(1, sd) counts past the count
        by count Poisson walk at `ROW_TAIL` (`poisson_support_walk`), never
        before it: over 33 000 means up to 3000 the largest excess was 2.0
        max(1, sd), at means below 1 (13 counts against 11 at 0.111)."""
        lam = survival * mean
        length = CountRows(Coherent(mean), survival).length()
        walked = poisson_support_walk(lam, ROW_TAIL) + 1
        assert walked <= length <= walked + 2.0 * max(1.0, math.sqrt(lam))

    @CHECKS
    @given(
        source=st.one_of(
            sources(),
            st.builds(make_multiplexed, st.sampled_from([3, 5]), st.just(1.0),
                      herald_eff=st.sampled_from(WEAK_HERALDS[1:])),
        ),
        survival=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        relative_pumps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 7.0)),
                                min_size=1, max_size=4),
    )
    def test_rows_at_either_rule_share_their_prefix(self, source, survival, relative_pumps):
        """Rows built at the Chernoff length and at the walk's length (its
        multiplexed tail at `ROW_TAIL` / 2**stages) agree bit for bit on
        the shorter of the two."""
        plan = CountRows(source, survival)
        if isinstance(source, Fock):
            mu, walked = None, source.photons + 1
        else:
            mu = source_pump(source) * np.array(relative_pumps)
            top = float(mu.max()) * survival
            if isinstance(source, Multiplexed):
                top *= source.stage_transmission**source.stages * source.optics_transmission
                walked = poisson_support_walk(top, max(ROW_TAIL / 2**source.stages, 1e-300)) + 1
            else:
                walked = poisson_support_walk(top, ROW_TAIL) + 1
        short, long = sorted((plan.length(mu), walked))
        np.testing.assert_array_equal(plan.rows(mu, long)[..., :short], plan.rows(mu, short))

    @settings(CHECKS, max_examples=40)
    @given(
        stages=st.integers(1, 3),
        pump=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        herald=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        x=st.floats(-1.0, 3.0, exclude_min=True),
    )
    def test_real_log_pgf_is_the_oracle_law(self, stages, pump, herald, x):
        """At a real x the multiplexed log G(1 + x), summed from the logs of
        its two terms, is the log of sum_n P(n) (1 + x)^n over the window by
        window enumeration, as the bracket form at x + 0j is."""
        source = Multiplexed(stages, pump, herald_eff=herald)
        law = enumerate_mux_output(stages, pump, herald, source.stage_transmission,
                                   source.optics_transmission, 60)
        got = source_log_pgf(source, np.array([x]))[0]
        assert math.exp(got) == pytest.approx(
            math.fsum(p * (1.0 + x) ** n for n, p in enumerate(law)), rel=1e-12)
        bracket_form = source_log_pgf(source, np.array([complex(x)]))[0]
        assert got == pytest.approx(bracket_form.real, rel=1e-9, abs=1e-15)

    def test_log_pgf_at_a_pump_is_the_source_running_there(self):
        x = CHERNOFF_POINTS[::9] * 0.7
        for source, pump in ((Coherent(1.0), 2.5), (make_multiplexed(3, 1.0), 0.3),
                             (make_multiplexed(5, 1.0, herald_eff=7e-11), 4e4)):
            at_pump = (Coherent(pump) if isinstance(source, Coherent)
                       else replace(source, pair_mean=pump))
            np.testing.assert_array_equal(source_log_pgf(source, x, pump), source_log_pgf(at_pump, x))


class TestFootprint:
    """The sizes `total_footprint` and `study_footprint` predict are the
    ones the engine builds, over tiny configs of every source kind, both
    detectors and both redraw modes, with heralds out to the budgets' edge,
    and the floats they predict held bound what tracemalloc finds.  A config
    the prediction puts past a budget is never run."""

    @settings(CHECKS, max_examples=40)
    @given(
        kind=st.sampled_from(SOURCE_KINDS),
        detector=st.sampled_from(list(Detector)),
        mean=st.floats(0.1, 30.0),
        stages=st.integers(1, 5),
        herald=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
        photons=st.integers(0, 5),
        survival=st.floats(0.0, 1.0),
        nu=st.integers(1, 2000),
    )
    @example(kind="multiplexed", detector=Detector.NUMBER_RESOLVING, mean=1.0, stages=2,
             herald=1e-10, photons=1, survival=0.72, nu=200)
    def test_total_windows_are_the_windows_transformed(
        self, kind, detector, mean, stages, herald, photons, survival, nu
    ):
        """`_total_count_pmf` inverts one FFT of exactly the predicted size,
        and the predicted window gives the law it forms on its own."""
        source = (Fock(photons) if kind == "fock" else Coherent(mean) if kind == "coherent"
                  else make_multiplexed(stages, mean, herald))
        held, windows = total_footprint([(source, detector)], survival, nu)
        if held > MAX_HELD_FLOATS:
            return
        with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as irfft:
            offset, probs = _total_count_pmf(source, detector, survival, nu)
        assert [call.args[1] for call in irfft.call_args_list] == [windows[0][1]]
        given_offset, given_probs = _total_count_pmf(source, detector, survival, nu, windows[0])
        assert given_offset == offset and given_probs.tobytes() == probs.tobytes()

    @settings(CHECKS, max_examples=30)
    @given(
        specs=st.lists(st.tuples(st.sampled_from(("coherent", "multiplexed")),
                                 st.sampled_from(list(Detector)), st.floats(0.1, 5.0),
                                 st.integers(1, 5), st.floats(-13.0, 0.0)),
                       min_size=1, max_size=3),
        a_grid=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=3),
        rounds=st.integers(2, 4),
        nu=st.integers(1, 50),
        redraw=st.sampled_from(REDRAWS),
        negatives=st.sampled_from(NEGATIVES),
        survival=st.floats(0.05, 1.0),
    )
    # Just inside the held budget in each mode.
    @example(specs=[("multiplexed", Detector.NUMBER_RESOLVING, 0.5, 3, -12.3)], a_grid=[0.6],
             rounds=2, nu=20, redraw="per-round", negatives="resample", survival=0.72)
    @example(specs=[("multiplexed", Detector.NUMBER_RESOLVING, 0.5, 3, -11.28)], a_grid=[0.6],
             rounds=2, nu=20, redraw="per-repetition", negatives="clamp", survival=0.72)
    # Blocks of 1310 rounds in the run, drawn 1024 at a time for the prediction.
    @example(specs=[("coherent", Detector.NUMBER_RESOLVING, 2.0, 1, 0.0)], a_grid=[0.6],
             rounds=3000, nu=100, redraw="per-round", negatives="resample", survival=0.72)
    def test_study_rows_are_at_most_the_predicted_lengths(
        self, specs, a_grid, rounds, nu, redraw, negatives, survival
    ):
        """Every row `_study_totals` builds for a pair is at most its length
        at the top pump node: per repetition every one is exactly it, and per
        round the longest is the one the rounds' own pumps give, which the
        pumps alone, drawn past the uniforms, reproduce bit for bit."""
        pairs = [(Coherent(mean) if kind == "coherent"
                  else make_multiplexed(stages, mean, 10.0**herald), detector)
                 for kind, detector, mean, stages, herald in specs]
        cfg = FluctuationConfig(tuple(a_grid), rounds, nu, redraw, negatives)
        held, formed, _, top = study_footprint(cfg, pairs, survival)
        drawn = study_footprint(cfg, pairs, survival, seed=3)
        if min(held, drawn[0]) > MAX_HELD_FLOATS or formed > MAX_FORMED_ENTRIES:
            return
        np.testing.assert_array_equal(_round_streams(cfg, 3, 0, rounds, uniforms=False)[0],
                                      _round_streams(cfg, 3, 0, rounds)[0])
        built = []

        def recorded(*args):
            plan, lengths = detected_row_plan(*args), []
            built.append(lengths)

            def rows(mu=None, length=None):
                made = plan.rows(mu, length)
                lengths.append(made.shape[-1])
                return made

            return SimpleNamespace(length=plan.length, rows=rows)

        with mock.patch.object(montecarlo, "detected_row_plan", recorded):
            fluctuation_study(cfg, pairs, Channel(1.0, survival), seed=3)
        for lengths, at_top, at_pumps in zip(built, top, drawn[3]):
            assert lengths and max(lengths) <= at_top
            if redraw == "per-repetition":
                assert set(lengths) == {at_top} and at_pumps == at_top
            else:
                assert max(lengths) == at_pumps

    @pytest.mark.parametrize("redraw", REDRAWS)
    @pytest.mark.parametrize(
        "herald, a_grid",
        [(1.0, (0.0,)), (1.0, (0.0, 0.3, 0.6)), (1e-12, (0.0,)), (1e-11, (0.0, 0.6)),
         (3e-12, (0.3,))],
    )
    def test_the_floats_held_are_at_most_the_prediction(self, herald, a_grid, redraw):
        """tracemalloc's peak over a study is at most `study_footprint`'s
        held floats plus its uniforms and round totals; where one row passes
        `_BLOCK_FLOATS` (the weak heralds), the prediction is within 2x."""
        pairs = [(source, detector) for detector in Detector
                 for source in (Coherent(0.5), *make_multiplexed([3, 5], 0.5, herald))]
        cfg = FluctuationConfig(a_grid, rounds=3, nu=20, redraw=redraw,
                                negatives="resample" if max(a_grid) > 0.5 else "clamp")
        held, _, _, lengths = study_footprint(cfg, pairs, 0.72, seed=5)
        assert held <= MAX_HELD_FLOATS
        others = 3 * cfg.rounds * cfg.nu + 4 * len(pairs) * len(a_grid) * cfg.rounds
        tracemalloc.start()
        try:
            fluctuation_study(cfg, pairs, Channel(0.8, 0.9), seed=5)
            peak = tracemalloc.get_traced_memory()[1] / 8
        finally:
            tracemalloc.stop()
        assert peak <= held + others
        if max(lengths) > _BLOCK_FLOATS:
            assert held <= 2 * peak


class TestFluctuationStudy:
    def test_zero_fluctuation_matches_exact_mse(self):
        cfg = FluctuationConfig(a_grid=(0.0,), rounds=800, nu=200)
        res = _study(cfg, Coherent(0.5), Detector.NUMBER_RESOLVING, CH, seed=5)
        exact = exact_report(Coherent(0.5), Detector.NUMBER_RESOLVING, CH, 200).mse
        # mean of 800 squared errors: relative standard error ~ sqrt(2/800)
        assert res[0].mean_mse == pytest.approx(exact, rel=0.25)

    def test_zero_fluctuation_matches_exact_mse_multiplexed(self):
        src = make_multiplexed(5, 0.5)
        cfg = FluctuationConfig(a_grid=(0.0,), rounds=800, nu=200)
        res = _study(cfg, src, Detector.THRESHOLD, CH, seed=6)
        exact = exact_report(src, Detector.THRESHOLD, CH, 200).mse
        assert res[0].mean_mse == pytest.approx(exact, rel=0.25)

    def test_runs_at_the_source_pump(self):
        """The study keeps the pump the source was tuned to (here 1 photon,
        not the 0.5 of the other tests)."""
        src = make_multiplexed(3, 1.0)
        cfg = FluctuationConfig(a_grid=(0.0,), rounds=800, nu=200)
        res = _study(cfg, src, Detector.NUMBER_RESOLVING, CH, seed=12)
        exact = exact_report(src, Detector.NUMBER_RESOLVING, CH, 200).mse
        assert res[0].mean_mse == pytest.approx(exact, rel=0.25)

    def test_vacuum_source_rejected(self):
        with pytest.raises(ValueError):
            _study(FluctuationConfig(), Coherent(0.0), Detector.THRESHOLD, CH, 0)

    @pytest.mark.parametrize("detector", list(Detector))
    @ZERO_REFERENCE
    def test_zero_reference_rejected(self, source, channel, detector):
        with pytest.raises(ValueError, match="reference must be > 0"):
            _study(FluctuationConfig(rounds=2), source, detector, channel, 0)

    def test_fluctuations_inflate_mse(self):
        cfg = FluctuationConfig(a_grid=(0.0, 0.6), rounds=50)
        for src in (Coherent(0.5), make_multiplexed(5, 0.5)):
            for det in (Detector.NUMBER_RESOLVING, Detector.THRESHOLD):
                res = _study(cfg, src, det, CH, seed=7)
                assert res[-1].mean_mse > res[0].mean_mse

    def test_multiplexed_more_robust_than_coherent(self):
        """The saturating pump-to-output map damps fluctuations."""
        cfg = FluctuationConfig(a_grid=(0.0, 0.6), rounds=200)
        infl = {}
        for name, src in [("coh", Coherent(0.5)), ("mux", make_multiplexed(5, 0.5))]:
            res = _study(cfg, src, Detector.NUMBER_RESOLVING, CH, seed=8)
            infl[name] = res[-1].mean_mse / res[0].mean_mse
        assert infl["mux"] < infl["coh"]

    def test_mse_standard_error(self):
        """mse_se is std(ddof=1)/sqrt(rounds) of the rounds' squared errors.

        At a = 0 the coherent round total K is Poisson with mean M = nu * t *
        eta * n, so the squared error (K - M)^2 / (nu * eta * n)^2 has
        standard deviation sqrt(M + 2 M^2) / (nu * eta * n)^2 exactly.  Over
        2000 rounds the sample standard deviation is within ~4% of it.
        """
        cfg = FluctuationConfig(a_grid=(0.0, 0.4), rounds=2000, nu=200)
        res = _study(cfg, Coherent(0.5), Detector.NUMBER_RESOLVING, CH, seed=4)
        m = cfg.nu * CH.survival * 0.5
        sd = math.sqrt(m + 2.0 * m * m) / (cfg.nu * CH.detector_eff * 0.5) ** 2
        assert res[0].mse_se == pytest.approx(sd / math.sqrt(cfg.rounds), rel=0.2)
        for s in res:
            assert 0.0 < s.mse_se < s.mean_mse

    @pytest.mark.parametrize("nu", [200, 4097])
    @pytest.mark.parametrize("negatives", NEGATIVES)
    @pytest.mark.parametrize("redraw", REDRAWS)
    def test_grid_equals_single_fraction_studies(self, redraw, negatives, nu):
        """Common random numbers: each fluctuation fraction of a grid gets the
        summary it gets alone, at a few and at thousands of repetitions per
        round.  Both a = 0.5 and 0.6 resample negative pumps, so each must
        replay the round's stream."""
        # One normal per round: 200 rounds draw negative pumps at both a = 0.5
        # and 0.6.
        rounds = 200 if redraw == "per-round" and nu == 200 else 10
        cfg = FluctuationConfig(
            a_grid=(0.0, 0.5, 0.6), rounds=rounds, nu=nu, redraw=redraw, negatives=negatives
        )
        for src in (Coherent(0.5), make_multiplexed(3, 0.5)):
            for det in Detector:
                grid = _study(cfg, src, det, CH, seed=3)
                alone = [
                    _study(replace(cfg, a_grid=(a,)), src, det, CH, seed=3)[0]
                    for a in cfg.a_grid
                ]
                assert grid == alone

    @pytest.mark.parametrize("redraw", REDRAWS)
    @settings(CHECKS, max_examples=40)
    @example(pairs=STUDY_PAIRS, a_grid=(0.0, 0.3, 0.6), rounds=30, nu=50, negatives="resample",
             seed=9, budget=montecarlo._BLOCK_FLOATS)
    # One block of 5 rounds against a budget of 200 floats: the coherent
    # rows of 91-277 counts are longer than the 20 uniforms and pass the
    # budget in one round, so per round each round's two fractions split
    # across calls; the rows of 17-29 counts take a group of their own,
    # and the two multiplexed pairs one group, one search per round.
    @example(
        pairs=[
            (Coherent(30.0), Detector.NUMBER_RESOLVING),
            (Coherent(0.5), Detector.NUMBER_RESOLVING),
            (make_multiplexed(3, 0.5), Detector.THRESHOLD),
            (make_multiplexed(3, 0.5), Detector.NUMBER_RESOLVING),
        ],
        a_grid=(0.0, 0.6), rounds=5, nu=20, negatives="clamp", seed=3, budget=200,
    )
    @given(
        pairs=st.lists(
            st.tuples(sources(mean_max=10.0), st.sampled_from(list(Detector))),
            min_size=1,
            max_size=4,
        ),
        a_grid=st.lists(st.floats(0.0, 0.6), min_size=1, max_size=3).map(tuple),
        rounds=st.integers(2, 6),
        nu=st.integers(1, 300),
        negatives=st.sampled_from(NEGATIVES),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 3000),
    )
    def test_pairs_equal_single_pair_studies(
        self, redraw, pairs, a_grid, rounds, nu, negatives, seed, budget
    ):
        """The pairs of one study share its round streams, and each gets the
        summaries it gets alone, whether its CDFs are searched with those of
        the pairs beside it or alone: the block budget `budget` leaves some
        rows within it and some past it, and some shared rows longer than
        nu.  A Fock state has no pump to fluctuate, so each drawn Fock pair
        is refused, beside the other pairs, and they are studied without it."""
        cfg = FluctuationConfig(a_grid, rounds, nu, redraw, negatives)
        fock = [pair for pair in pairs if isinstance(pair[0], Fock)]
        pairs = [pair for pair in pairs if pair not in fock]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_FLOATS", budget)
            for pair in fock:
                with pytest.raises(TypeError, match="not a pump-driven source"):
                    fluctuation_study(cfg, [*pairs, pair], CH, seed)
            assert fluctuation_study(cfg, pairs, CH, seed) == [
                _study(cfg, src, det, CH, seed) for src, det in pairs
            ]

    @pytest.mark.parametrize("redraw", REDRAWS)
    def test_one_bit_generator_per_block_and_one_quadrature_per_study(self, redraw, monkeypatch):
        """A study of four pairs builds one `PCG64` per block of rounds,
        which it jumps to each round, seeds no generator with `default_rng`,
        and builds the pump nodes of its fluctuation fractions once.  Each
        pair's count rows come from one call of its plan's `rows`, at all pumps of the
        one block of rounds or, per repetition, at every pump node; the row
        length comes from `length`, and no row is built to learn it."""
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counted_plan(*args):
            plan = detected_row_plan(*args)
            return SimpleNamespace(length=plan.length, rows=counted("rows", plan.rows))

        monkeypatch.setattr(np.random, "default_rng", counted("seeded", np.random.default_rng))
        monkeypatch.setattr(np.random, "PCG64", counted("bit generators", np.random.PCG64))
        monkeypatch.setattr(montecarlo, "pump_nodes", counted("grids", montecarlo.pump_nodes))
        monkeypatch.setattr(montecarlo, "detected_row_plan", counted_plan)
        cfg = FluctuationConfig(rounds=20, redraw=redraw)
        fluctuation_study(cfg, STUDY_PAIRS, CH, 0)
        assert calls == {"bit generators": 1, "grids": 1, "rows": len(STUDY_PAIRS)}
        # Three blocks of 8, 8 and 4 rounds: one bit generator each.
        calls.clear()
        monkeypatch.setattr(montecarlo, "_BLOCK_FLOATS", 8 * cfg.nu)
        nodes = pump_nodes(cfg.a_grid, cfg.negatives)
        montecarlo._study_totals(cfg, STUDY_PAIRS[:1], CH.survival, 0, nodes)
        assert calls["bit generators"] == 3 and calls["seeded"] == 0

    @pytest.mark.parametrize("redraw", REDRAWS)
    def test_count_rows_share_windows_and_log_factorials(self, redraw, monkeypatch):
        """Over a study of several blocks, each holding several chunks of
        rounds per pair, the row length takes one `count_window` per pair
        and block per round, one per pair per repetition, and no entry of
        the one log-factorial table is computed twice: from a reset table,
        each entry is one `math.lgamma` call.  Per round, each
        `plan.rows` call takes the pumps of consecutive rounds of one block,
        in order, at most max(1, _BLOCK_FLOATS // (a x length)) of them at
        the block's row length; per repetition, the calls take the pump
        nodes in order, once each, at most max(1, _BLOCK_FLOATS // length)
        of them at the one length of all of them."""
        windows, entries, calls = [], [], []
        exact_lgamma, count_window = math.lgamma, source_models.count_window

        def window(logs, nu):
            windows.append(nu)
            return count_window(logs, nu)

        def lgamma(x):
            entries.append(x)
            return exact_lgamma(x)

        def recorded_plan(*args):
            plan, built = detected_row_plan(*args), []
            calls.append(built)

            def rows(mu, length=None):
                built.append((np.array(mu), length))
                return plan.rows(mu, length)

            return SimpleNamespace(length=plan.length, rows=rows)

        monkeypatch.setattr(source_models, "count_window", window)
        monkeypatch.setattr(pmf, "_log_factorial_table", np.empty(0))
        monkeypatch.setattr(math, "lgamma", lgamma)
        monkeypatch.setattr(montecarlo, "detected_row_plan", recorded_plan)
        # 3 rounds of 400 uniforms per block, and a block budget of 1200
        # floats against two fractions' rows of 188-460 counts: 4 blocks of
        # chunks of 1 to 3 rounds per pair per round, and chunks of 2 nodes
        # per repetition.
        budget = 1200
        monkeypatch.setattr(montecarlo, "_BLOCK_FLOATS", budget)
        sources_at_mean = (Coherent(200.0), make_multiplexed(3, 100.0))
        pairs = [(source, Detector.NUMBER_RESOLVING) for source in sources_at_mean]
        cfg = FluctuationConfig(a_grid=(0.0, 0.5), rounds=10, nu=400, redraw=redraw)
        fluctuation_study(cfg, pairs, CH, 3)
        blocks = 1 if redraw == "per-repetition" else 4
        assert sum(map(len, calls)) > blocks * len(pairs)
        assert windows == [1] * (blocks * len(pairs))
        assert 0 < len(entries) == len(set(entries)) == pmf._log_factorial_table.size

        n_a, step = len(cfg.a_grid), budget // cfg.nu
        nodes_x, _, _ = pump_nodes(cfg.a_grid, cfg.negatives)
        x = _round_streams(cfg, 3, 0, cfg.rounds)[0]
        for (source, detector), built in zip(pairs, calls):
            pump = source_pump(source)
            plan = detected_row_plan(source, detector, CH.survival)
            if redraw == "per-repetition":
                length = plan.length(pump * nodes_x)
                assert {n for _, n in built} == {length}
                assert all(1 <= mu.size <= max(1, budget // length) for mu, _ in built)
                assert np.concatenate([mu for mu, _ in built]).tolist() == (pump * nodes_x).tolist()
                continue
            lo = 0
            for mu, length in built:
                n = mu.size // n_a
                block = x[lo // step * step : (lo // step + 1) * step]
                assert length == plan.length(pump * block)
                assert 1 <= n <= max(1, budget // (n_a * length))
                assert lo // step == (lo + n - 1) // step
                assert mu.tolist() == (pump * x[lo : lo + n]).tolist()
                lo += n
            assert lo == cfg.rounds

    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_split_rounds_give_the_unsplit_totals(self, negatives, monkeypatch):
        """Where one round's rows pass `_BLOCK_FLOATS`, the round's
        fractions split across `plan.rows` calls, in order, of as many rows
        as fit at the block's row length, which every call takes, and the
        totals equal those of the unsplit run, whose one call takes every
        round."""
        sources_at_mean = (Coherent(200.0), make_multiplexed(3, 100.0))
        pairs = [(source, Detector.NUMBER_RESOLVING) for source in sources_at_mean]
        cfg = FluctuationConfig(a_grid=(0.0, 0.1, 0.3, 0.5, 0.6), rounds=12, nu=300,
                                negatives=negatives)
        nodes = pump_nodes(cfg.a_grid, cfg.negatives)
        unsplit = montecarlo._study_totals(cfg, pairs, CH.survival, 5, nodes)
        calls = []

        def recorded_plan(*args):
            plan, built = detected_row_plan(*args), []
            calls.append(built)

            def rows(mu, length=None):
                built.append((np.array(mu), length))
                return plan.rows(mu, length)

            return SimpleNamespace(length=plan.length, rows=rows)

        monkeypatch.setattr(montecarlo, "detected_row_plan", recorded_plan)
        # Against rows of ~160-560 counts, 600 floats hold 1-3 of them: fewer
        # than a round's 5 fractions.  The blocks hold 2 rounds of uniforms.
        budget = 600
        monkeypatch.setattr(montecarlo, "_BLOCK_FLOATS", budget)
        split = montecarlo._study_totals(cfg, pairs, CH.survival, 5, nodes)
        assert split.tolist() == unsplit.tolist()

        n_a, step = len(cfg.a_grid), budget // cfg.nu
        x = _round_streams(cfg, 5, 0, cfg.rounds)[0]
        for (source, detector), built in zip(pairs, calls):
            pump = source_pump(source)
            plan = detected_row_plan(source, detector, CH.survival)
            assert len(built) > cfg.rounds
            lo = 0
            for mu, length in built:
                r = lo // n_a
                assert length == plan.length(pump * x[r // step * step : (r // step + 1) * step])
                assert mu.size <= max(1, budget // length)
                assert (lo + mu.size - 1) // n_a == r
                lo += mu.size
            assert lo == x.size
            assert np.concatenate([mu.ravel() for mu, _ in built]).tolist() == (
                pump * x.ravel()
            ).tolist()

    @pytest.mark.parametrize("redraw", REDRAWS)
    def test_per_round_memory_is_blocked(self, redraw):
        """At nu = 1e5 a block holds one round's uniforms (0.8 MB); 300 rounds
        in one block would hold 240 MB of uniforms alone."""
        cfg = FluctuationConfig(a_grid=(0.0, 0.6), rounds=300, nu=100_000, redraw=redraw)
        tracemalloc.start()
        try:
            _study(cfg, make_multiplexed(3, 0.5), Detector.NUMBER_RESOLVING, CH, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_per_repetition_row_builds_are_blocked(self):
        """At mean 1000 the rows at one fraction's 49 pump nodes (~2 MB)
        already pass the block budget; one call at all 295 nodes of a study
        peaks at ~39 MiB."""
        cfg = FluctuationConfig(rounds=2, nu=10, redraw="per-repetition")
        tracemalloc.start()
        try:
            _study(cfg, make_multiplexed(3, 1000.0), Detector.NUMBER_RESOLVING, CH, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_per_repetition_memory_does_not_grow_with_a_fraction_s_rows(self):
        """At mean 3000 the rows at one fraction's 49 pump nodes, 16 230
        counts each (6.1 MiB), pass the block budget six times over, yet
        the study holds one chunk of nodes' rows at a time: it peaks at
        5.4 MiB, and at 19.7 MiB where each fraction's rows were built in
        one call."""
        cfg = FluctuationConfig(rounds=2, nu=10, redraw="per-repetition")
        tracemalloc.start()
        try:
            _study(cfg, make_multiplexed(3, 3000.0), Detector.NUMBER_RESOLVING, CH, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_modes_agree_at_a_fixed_pump(self):
        """At a = 0 the pump is fixed, and both redraw modes count the same
        draws from the same row, so they give the same summaries."""
        per_round = FluctuationConfig(a_grid=(0.0, 0.4))
        per_repetition = replace(per_round, redraw="per-repetition")
        round_studies, repetition_studies = (
            fluctuation_study(cfg, STUDY_PAIRS, CH, 5) for cfg in (per_round, per_repetition)
        )
        assert [s[0] for s in round_studies] == [s[0] for s in repetition_studies]
        assert [s[1] for s in round_studies] != [s[1] for s in repetition_studies]

    def test_reproducible_per_seed(self):
        cfg = FluctuationConfig(rounds=40)
        a = _study(cfg, Coherent(0.5), Detector.THRESHOLD, CH, seed=42)
        b = _study(cfg, Coherent(0.5), Detector.THRESHOLD, CH, seed=42)
        assert a == b

    def test_percentiles_ordered(self):
        cfg = FluctuationConfig(rounds=60)
        for s in _study(cfg, Coherent(0.5), Detector.NUMBER_RESOLVING, CH, seed=1):
            assert s.ci_low <= s.mean_mse or s.ci_low <= s.ci_high
            assert s.ci_low <= s.ci_high

    @pytest.mark.parametrize("negatives", NEGATIVES)
    @pytest.mark.parametrize("redraw", REDRAWS)
    def test_bands_are_numpy_percentiles_of_the_squared_errors(self, redraw, negatives):
        """`ci_low` and `ci_high` are np.percentile(..., [16, 84]) of the
        rounds' squared errors, bit for bit, for every pair of a study."""
        cfg = FluctuationConfig(rounds=37, nu=50, redraw=redraw, negatives=negatives)
        studies = fluctuation_study(cfg, STUDY_PAIRS, CH, seed=13)
        totals = montecarlo._study_totals(
            cfg, STUDY_PAIRS, CH.survival, 13, pump_nodes(cfg.a_grid, negatives)
        )
        for summaries, pair_totals, (source, detector) in zip(studies, totals, STUDY_PAIRS):
            ref = reference_mean(source, detector, CH.detector_eff)
            sq_err = (pair_totals / (cfg.nu * ref) - CH.transmission) ** 2
            low, high = np.percentile(sq_err, [16.0, 84.0], axis=-1)
            assert np.array([s.ci_low for s in summaries]).tobytes() == low.tobytes()
            assert np.array([s.ci_high for s in summaries]).tobytes() == high.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        rounds=st.integers(2, 2000),
        pairs=st.integers(1, 3),
        fractions=st.integers(1, 3),
        pool=st.lists(
            st.one_of(
                st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e300,
                                 1.7976931348623157e308]),
                st.floats(0.0, 1e-300),  # subnormals and the smallest normals
                st.floats(0.0, 1e300),
            ),
            min_size=1,
            max_size=6,
        ),
        spread=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rounds=2, pairs=1, fractions=1, pool=[0.0, 1.0], spread=False, seed=0)
    @example(rounds=2000, pairs=3, fractions=3, pool=[1e300, 5e-324], spread=True, seed=1)
    def test_band_edges_are_numpy_percentiles(self, rounds, pairs, fractions, pool, spread, seed):
        """The band rule equals np.percentile's default 'linear' rule bit for
        bit on squared-error-like arrays (non-negative, no -0.0): drawn from
        a few values, so they tie, or spread by uniform factors."""
        rng = np.random.default_rng(seed)
        shape = (pairs, fractions, rounds)
        x = rng.choice(np.array(pool), shape)
        if spread:
            x *= rng.random(shape)
        ordered = np.sort(x, axis=-1)
        for q, want in zip((16.0, 84.0), np.percentile(x, [16.0, 84.0], axis=-1)):
            assert montecarlo._band_edge(ordered, q).tobytes() == want.tobytes()

    def test_per_repetition_mode_runs_and_inflates_less(self):
        """Independent per-repetition pump noise averages out within a round,
        so it inflates the MSE far less than a shared per-round drift."""
        per_rep = FluctuationConfig(
            a_grid=(0.0, 0.6), rounds=300, redraw="per-repetition"
        )
        per_round = FluctuationConfig(a_grid=(0.0, 0.6), rounds=300)
        src = Coherent(0.5)
        r_rep = _study(per_rep, src, Detector.NUMBER_RESOLVING, CH, seed=11)
        r_round = _study(per_round, src, Detector.NUMBER_RESOLVING, CH, seed=11)
        infl_rep = r_rep[-1].mean_mse / r_rep[0].mean_mse
        infl_round = r_round[-1].mean_mse / r_round[0].mean_mse
        assert 1.0 < infl_rep < 3.0
        assert infl_round > 5.0

    def test_resample_mode_runs(self):
        cfg = FluctuationConfig(
            a_grid=(0.0, 0.6), rounds=40, negatives="resample"
        )
        res = _study(cfg, Coherent(0.5), Detector.THRESHOLD, CH, seed=2)
        assert len(res) == 2 and all(np.isfinite(s.mean_mse) for s in res)

    def test_fock_source_rejected(self):
        with pytest.raises(TypeError):
            _study(FluctuationConfig(), Fock(1), Detector.THRESHOLD, CH, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a_grid": (0.7,)},
            {"a_grid": ()},
            {"a_grid": (0.1, math.nan)},
            {"rounds": 1},
            {"nu": 0},
            {"nu": 2.5},
            {"nu": math.inf},
            {"rounds": 2.5},
            {"redraw": "sometimes"},
            {"negatives": "ignore"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigError) as err:
            FluctuationConfig(**kwargs)
        assert err.value.field == field

    def test_string_modes_select_their_mode(self):
        """The command line's strings select their own mode: per-round
        clamped noise at a = 0.6 gives the exact MSE 0.2208, not that of
        another mode."""
        args = (Coherent(0.5), Detector.NUMBER_RESOLVING, CH)
        mses = {}
        for redraw, negatives in REDRAW_NEGATIVES:
            cfg = FluctuationConfig(a_grid=(0.6,), redraw=redraw, negatives=negatives)
            mses[redraw, negatives] = fluctuation_mse(cfg, *args)[0]
        assert mses["per-round", "clamp"] == pytest.approx(0.2208, abs=1e-4)
        assert mses["per-round", "clamp"] == fluctuation_mse(FluctuationConfig((0.6,)), *args)[0]
        assert len(set(mses.values())) == 4
        per_round = FluctuationConfig((0.0, 0.6), rounds=50, redraw="per-round")
        study = _study(per_round, *args, seed=1)
        assert study[1].mean_mse > 5.0 * study[0].mean_mse


def _enumerated_source(stages):
    """Coherent light (stages None) or a multiplexed source of `stages`
    stages at mean 0.5, with its photon-number distribution at the sample at
    relative pump x: Poisson, or the window-by-window enumeration."""
    if stages is None:
        return Coherent(0.5), functools.cache(lambda x: poisson_probs(0.5 * x, 40))
    src = make_multiplexed(stages, 0.5)
    # The largest pump node is 7x the tuned pump (at most 2.8 here), where
    # the Poisson pair tail beyond 36 is below 1e-26.
    calibration = (src.herald_eff, src.stage_transmission, src.optics_transmission)
    return src, functools.cache(
        lambda x: enumerate_mux_output(stages, src.pair_mean * x, *calibration, n_cut=36)
    )


REDRAW_NEGATIVES = [(r, n) for r in REDRAWS for n in NEGATIVES]


class TestFluctuationMse:
    """`fluctuation_mse` is the exact MSE `fluctuation_study` samples, by
    quadrature over `pump_nodes`."""

    # `leggauss`'s own weights are up to 1.3e-12 relative off a 40-digit
    # evaluation at the smallest weights (~3e-3); the recurrence's are within
    # 1.4e-13.
    WEIGHT_RTOL = 1e-11

    def test_legendre_table_is_the_newton_rule(self):
        """The committed table holds what Newton's method gives, which
        another libm may round by an ulp."""
        nodes, weights = legendre_rule(48)
        np.testing.assert_array_max_ulp(_LEGENDRE_NODES, nodes, maxulp=1)
        np.testing.assert_array_max_ulp(_LEGENDRE_WEIGHTS, weights, maxulp=1)

    def test_legendre_nodes_match_leggauss(self):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(48)
        np.testing.assert_allclose(_LEGENDRE_NODES, want_nodes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(_LEGENDRE_WEIGHTS, want_weights, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(
            _LEGENDRE_WEIGHTS, want_weights, rtol=self.WEIGHT_RTOL, atol=0.0
        )

    @pytest.mark.parametrize("negatives", NEGATIVES)
    @pytest.mark.parametrize("a", [0.0, 0.001, 0.05, 0.1, 0.3, 0.6])
    def test_pump_nodes_match_oracle_nodes(self, a, negatives):
        """Both integrate z over (max(-1/a, -10), 10)."""
        x, w, _ = pump_nodes((a,), negatives)
        expected = np.array(gaussian_pump_nodes(a, negatives))
        np.testing.assert_allclose(x, expected[:, 0], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(w, expected[:, 1], rtol=self.WEIGHT_RTOL, atol=0.0)

    @pytest.mark.parametrize("negatives", NEGATIVES)
    @pytest.mark.parametrize("a", [1e-6, 1e-3, 0.01, 0.05, 0.2, 0.6])
    def test_pump_nodes_integrate_the_truncated_normal(self, a, negatives):
        """Mass, E[x] and E[x^2] of x = 1 + a*z clamped at 0 (or conditioned
        on x > 0), in closed form from the normal density and CDF at 1/a."""
        x, w, _ = pump_nodes((a,), negatives)
        c = 1.0 / a
        phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
        positive = 0.5 * math.erfc(-c / math.sqrt(2.0))
        ex, ex2 = positive + a * phi, (1.0 + a * a) * positive + a * phi
        if negatives == "resample":
            ex, ex2 = ex / positive, ex2 / positive
        assert w.sum() == pytest.approx(1.0, rel=1e-13)
        assert w @ x == pytest.approx(ex, rel=1e-13)
        assert w @ (x * x) == pytest.approx(ex2, rel=1e-13)

    def test_clamped_nodes_end_at_zero(self):
        """Clamped draws hold P(x < 0) in a node at x = 0 after the 48
        Gauss-Legendre nodes; resampled ones have none."""
        x, w, _ = pump_nodes((0.6,), "clamp")
        assert x.size == 49 and x[-1] == 0.0
        assert w[-1] == pytest.approx(0.5 * math.erfc(1.0 / (0.6 * math.sqrt(2.0))), rel=1e-15)
        assert pump_nodes((0.6,), "resample")[0].size == 48

    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_node_layout_holds_each_fraction_in_its_slice(self, negatives):
        """Fraction i's nodes and weights are `x[ends[i]:ends[i + 1]]` and
        `w[ends[i]:ends[i + 1]]`, bit for bit those of the fraction alone:
        one node at a = 0, and 48 Gauss-Legendre nodes plus, clamped, x = 0."""
        a_grid = (0.0, 0.3, 0.6)
        x, w, ends = pump_nodes(a_grid, negatives)
        assert ends[0] == 0 and ends[-1] == x.size == w.size
        want_sizes = [1, 49, 49] if negatives == "clamp" else [1, 48, 48]
        assert np.diff(ends).tolist() == want_sizes
        for a, lo, hi in zip(a_grid, ends, ends[1:]):
            x_a, w_a, _ = pump_nodes((a,), negatives)
            assert x[lo:hi].tobytes() == x_a.tobytes()
            assert w[lo:hi].tobytes() == w_a.tobytes()

    @pytest.mark.parametrize("a", [0.0, 0.6])
    def test_unknown_negatives_named(self, a):
        with pytest.raises(ConfigError) as err:
            pump_nodes((a,), "ignore")
        assert err.value.field == "negatives"

    @pytest.mark.parametrize("stages", [None, 1, 2, 3, 4, 5, 6], ids=lambda m: f"m{m}")
    def test_matches_oracles_in_every_mode(self, stages):
        """Number-resolving against `nr_mse_fluctuating_pump` and threshold
        against `threshold_mse_fluctuating_pump`, both on enumerated
        photon-number distributions, to 1e-12 relative."""
        src, probs = _enumerated_source(stages)
        s = CH.survival
        nr_reference = CH.detector_eff * thinned_count_moments(probs(1.0), 1.0)[0]
        click_reference = enumerate_click_probability(probs(1.0), CH.detector_eff)

        def count_moments(x):
            return thinned_count_moments(probs(x), s)

        for redraw, negatives in REDRAW_NEGATIVES:
            cfg = FluctuationConfig(a_grid=(0.0, 0.6), nu=200, redraw=redraw, negatives=negatives)
            modes = (redraw, negatives)
            got = fluctuation_mse(cfg, src, Detector.NUMBER_RESOLVING, CH)
            want = [
                nr_mse_fluctuating_pump(count_moments, nr_reference, 0.8, 200, a, *modes)
                for a in cfg.a_grid
            ]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=str(modes))
            got = fluctuation_mse(cfg, src, Detector.THRESHOLD, CH)
            want = [
                threshold_mse_fluctuating_pump(probs, s, click_reference, 0.8, 200, a, *modes)
                for a in cfg.a_grid
            ]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=str(modes))

    @pytest.mark.parametrize("redraw, negatives", REDRAW_NEGATIVES)
    def test_zero_fluctuation_is_the_exact_report(self, redraw, negatives):
        cfg = FluctuationConfig(a_grid=(0.0,), nu=37, redraw=redraw, negatives=negatives)
        for src in (Coherent(1.3), make_multiplexed(4, 0.8)):
            for det in Detector:
                got = fluctuation_mse(cfg, src, det, CH)[0]
                assert got == pytest.approx(exact_report(src, det, CH, 37).mse, rel=1e-13)

    def test_fock_and_zero_reference_rejected(self):
        with pytest.raises(TypeError):
            fluctuation_mse(FluctuationConfig(), Fock(1), Detector.THRESHOLD, CH)
        with pytest.raises(ValueError, match="reference must be > 0"):
            fluctuation_mse(FluctuationConfig(), Coherent(0.0), Detector.NUMBER_RESOLVING, CH)


# Examples of the randomized per-repetition check, each with two z-scores,
# plus the two pinned ones at the largest clamped pump mass.
FLUX_EXAMPLES = 25
# Bonferroni over every z-score to a family-wise false-alarm rate of 1e-3:
# |z| < 4.43.
FLUX_Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 2 * (FLUX_EXAMPLES + 2)))


@settings(CHECKS, max_examples=FLUX_EXAMPLES)
@example(
    source=make_multiplexed(5, 0.5), detector=Detector.NUMBER_RESOLVING, a=0.6,
    negatives="clamp", transmission=0.8, nu=200, seed=5,
)
@example(
    source=Coherent(0.5), detector=Detector.NUMBER_RESOLVING, a=0.6,
    negatives="clamp", transmission=0.8, nu=200, seed=5,
)
@given(
    source=sources(kinds=("coherent", "multiplexed"), mean_max=2.0),
    detector=st.sampled_from(list(Detector)),
    a=st.floats(0.0, 0.6),
    negatives=st.sampled_from(NEGATIVES),
    transmission=st.floats(0.2, 1.0),
    nu=st.integers(50, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_repetition_study_matches_exact_mse(
    source, detector, a, negatives, transmission, nu, seed
):
    """Randomized per-repetition rounds against `fluctuation_mse`.

    The bound was fixed before any example ran.  At 400 rounds of at least
    50 repetitions with mean >= 0.1 and detector efficiency 0.9, each round's
    estimate is near Gaussian, so the mean of its squared errors has a
    t-statistic close to normal.  Per-round rounds are not checked this way:
    their squared error is a smooth function of one normal draw, and its
    t-statistic is strongly skewed.
    """
    channel = Channel(transmission, 0.9)
    cfg = FluctuationConfig(
        a_grid=(0.0, a), rounds=400, nu=nu, redraw="per-repetition", negatives=negatives
    )
    summaries = _study(cfg, source, detector, channel, seed)
    for summary, exact in zip(summaries, fluctuation_mse(cfg, source, detector, channel)):
        assert abs(summary.mean_mse - exact) < FLUX_Z_BOUND * summary.mse_se
