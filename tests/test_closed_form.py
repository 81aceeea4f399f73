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
1e-12 absolute.  An exact report over a whole transmission grid must match
the reports at its points one by one, and the closed forms over a list of
multiplexed networks (a leading network axis) must give each network's own
results bit for bit.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    enumerate_click_probability,
    enumerate_mux_output,
    mask_bisection,
    poisson_probs,
    sync_probability,
    thinned_count_moments,
    tune_pump,
)
from subshot.detection import Channel, Detector, detected_moments
from subshot.estimators import (
    asymptotic_relative_mse_floor,
    exact_report,
    snl_ratio,
    snl_report,
)
from subshot import sources
from subshot.experiments import _DEFAULT_MEAN_GRIDS, MAX_MEAN, SweepConfig
from subshot.sources import (
    MAX_STAGES,
    TUNING_TOL,
    Coherent,
    CountRows,
    Fock,
    Multiplexed,
    make_multiplexed,
    source_click_probabilities,
    source_moments,
    source_pump,
    tune_pair_mean,
)

RTOL, ATOL = 1e-12, 1e-15

# Fixed example sequence: the suite stays deterministic and writes no
# example database.
CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
ORACLE_CHECKS = settings(CHECKS, max_examples=40)

survivals = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
log_uniform_targets = st.floats(-12.0, math.log10(MAX_MEAN)).map(lambda e: 10.0**e)
herald_effs = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
# Targets from 1e-323, where the tuning's stop rule 1e-10 * target underflows
# to 0, to 1e14, where the tuning stops at adjacent floats; half the draws
# lie below 1e-313, where that stop rule is 0 or subnormal.
bisection_targets = st.one_of(st.floats(-323.0, -313.0), st.floats(-313.0, 14.0)).map(
    lambda e: 10.0**e
)


@st.composite
def mux_sources(draw, max_pump=3.0, max_stages=10):
    return Multiplexed(
        stages=draw(st.integers(1, max_stages)),
        pair_mean=draw(st.floats(1e-3, max_pump)),
        herald_eff=draw(herald_effs),
        stage_transmission=draw(st.floats(0.5, 1.0)),
        optics_transmission=draw(st.floats(0.05, 1.0)),
    )


def close(got, expected):
    return got == pytest.approx(expected, rel=RTOL, abs=ATOL)


def enumerated(src: Multiplexed, survival: float = 1.0) -> list[float]:
    # A cut 20 + 6 mu photons leaves a Poisson tail below 1e-25 for mu <= 2.
    return enumerate_mux_output(
        src.stages,
        src.pair_mean,
        src.herald_eff,
        src.stage_transmission,
        src.optics_transmission * survival,
        n_cut=20 + int(6 * src.pair_mean),
    )


def mean_and_variance(probs, survival: float = 1.0) -> tuple[float, float]:
    mean, second = thinned_count_moments(probs, survival)
    return mean, second - mean * mean


def assert_detected_moments_close(src, survival, mean, variance, click, floor=0.0):
    """Thinned-count and click moments of one repetition against the
    expected count mean and variance and click probability; `floor` is an
    absolute floor of the click-variance bound."""
    counts = detected_moments(src, Detector.NUMBER_RESOLVING, survival)
    assert close(counts.mean, mean)
    assert close(counts.variance, variance)
    clicks = detected_moments(src, Detector.THRESHOLD, survival)
    assert close(clicks.mean, click)
    # p (1 - p) inherits the absolute error of p through 1 - p.
    assert clicks.variance == pytest.approx(
        click * (1.0 - click), rel=RTOL, abs=max(RTOL * click, floor)
    )


def assert_rows_close(got, expected):
    n = max(len(got), len(expected))
    padded = np.zeros((2, n))
    padded[0, : len(got)] = got
    padded[1, : len(expected)] = expected
    np.testing.assert_allclose(padded[0], padded[1], rtol=0, atol=1e-12)


class TestAgainstDistributionSums:
    @CHECKS
    # A subnormal click probability: mu Q s is already subnormal before the
    # window gain multiplies it.
    @example(
        Multiplexed(
            stages=4, pair_mean=0.001, herald_eff=1.0, stage_transmission=0.5,
            optics_transmission=1.0,
        ),
        2.2250738585072014e-308,
    )
    @given(mux_sources(), survivals)
    def test_multiplexed(self, src, survival):
        row = CountRows(src, 1.0).rows()
        mean, variance = mean_and_variance(row)
        got = source_moments(src)
        assert close(got.mean, mean)
        assert close(got.variance, variance)
        expected_click = enumerate_click_probability(row, survival)
        expected = mean_and_variance(row, survival)
        # A product rounded to the subnormal spacing, times a window gain of
        # at most 2**stages.
        floor = math.ulp(0.0) * 2**src.stages
        assert_detected_moments_close(src, survival, *expected, expected_click, floor)

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
        expected = mean_and_variance(probs, survival)
        assert_detected_moments_close(src, survival, *expected, expected_click)

    @CHECKS
    @given(st.integers(0, 30), survivals)
    def test_fock(self, photons, survival):
        src = Fock(photons)
        got = source_moments(src)
        assert got.mean == photons and got.variance == 0.0
        # Sums of positive terms over the binomial count distribution: the
        # click (at least one photon survives) is exact also where
        # 1 - (1 - survival)**photons would cancel, and the centered variance
        # where the second moment minus the squared mean would.
        terms = [
            math.comb(photons, k) * survival**k * (1.0 - survival) ** (photons - k)
            for k in range(photons + 1)
        ]
        mean = sum(k * p for k, p in enumerate(terms))
        variance = sum((k - mean) ** 2 * p for k, p in enumerate(terms))
        assert_detected_moments_close(src, survival, mean, variance, sum(terms[1:]))


class TestAgainstEnumeration:
    @ORACLE_CHECKS
    @given(mux_sources(max_pump=2.0), survivals)
    def test_multiplexed(self, src, survival):
        probs = enumerated(src)
        mean = sum(n * p for n, p in enumerate(probs))
        variance = sum((n - mean) ** 2 * p for n, p in enumerate(probs))
        got = source_moments(src)
        assert close(got.mean, mean)
        assert close(got.variance, variance)
        expected_click = enumerate_click_probability(probs, survival)
        assert close(source_click_probabilities(src, survival)[1], expected_click)

    @ORACLE_CHECKS
    @given(mux_sources(max_pump=2.0, max_stages=4), survivals)
    def test_multiplexed_rows(self, src, survival):
        assert_rows_close(CountRows(src, 1.0).rows(), enumerated(src))
        rows = CountRows(src, survival).rows()
        assert_rows_close(rows, enumerated(src, survival))


class TestEdges:
    def test_click_probability_exactly_zero_without_survival(self):
        for src in (Coherent(0.7), Fock(3), Multiplexed(stages=4, pair_mean=0.3)):
            assert source_click_probabilities(src, 0.0)[1] == 0.0

    def test_vacuum_sources(self):
        for src in (
            Coherent(0.0),
            Fock(0),
            Multiplexed(stages=2, pair_mean=0.0),
            Multiplexed(stages=2, pair_mean=0.5, herald_eff=0.0),
        ):
            got = source_moments(src)
            assert got.mean == 0.0 and got.variance == 0.0
            assert source_click_probabilities(src, 1.0)[1] == 0.0

    @pytest.mark.parametrize("herald_eff", [0.8, 1.0])
    def test_strong_pump_row_finite_and_normalized(self, herald_eff):
        """At mu * herald_eff = 40 the per-window herald probability rounds
        to 1; the row stays finite, non-negative and normalized."""
        src = Multiplexed(stages=2, pair_mean=40.0 / herald_eff, herald_eff=herald_eff)
        row = CountRows(src, 0.72).rows()
        assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        mean = float(np.arange(row.size) @ row)
        expected = source_moments(src).mean * 0.72
        assert mean == pytest.approx(expected, rel=1e-12)


class TestTuning:
    @CHECKS
    @given(mux_sources(), st.floats(1e-4, 20.0))
    def test_residual_below_tolerance(self, src, target):
        mu = tune_pair_mean(src, target)
        achieved = source_moments(replace(src, pair_mean=mu)).mean
        assert abs(achieved - target) < TUNING_TOL

    @pytest.mark.parametrize("stages", [1, 3, 6])
    @pytest.mark.parametrize("target", [1e-12, 1e-9, 0.05])
    def test_tiny_targets_tune_to_relative_precision(self, stages, target):
        """The stop rule is relative below one photon: an absolute 1e-10 would
        accept a source 64 times too bright at target 1e-12."""
        achieved = source_moments(make_multiplexed(stages, target)).mean
        assert abs(achieved - target) <= 1e-9 * target

    @settings(CHECKS, max_examples=60)
    @given(
        st.lists(st.integers(1, MAX_STAGES), min_size=1, max_size=4),
        st.lists(log_uniform_targets, min_size=1, max_size=4),
        herald_effs,
        st.floats(0.5, 1.0),
        st.floats(0.05, 1.0),
    )
    def test_array_tuning_matches_one_entry_tunings(self, stages, targets, herald, stage, optics):
        """One bisection over every (stage count, target) entry gives each
        entry the pump it gets tuned alone, bit for bit."""
        sources = [Multiplexed(m, 0.0, herald, stage, optics) for m in stages]
        pumps = tune_pair_mean(sources, np.array(targets))
        assert pumps.shape == (len(stages), len(targets))
        for i, src in enumerate(sources):
            for j, target in enumerate(targets):
                assert pumps[i, j] == tune_pair_mean(src, target)

    @settings(CHECKS, max_examples=8)
    @given(
        st.integers(1, MAX_STAGES),
        st.lists(log_uniform_targets, min_size=1, max_size=2),
        herald_effs,
        st.floats(0.8, 1.0),
        st.floats(0.05, 1.0),
    )
    @example(64, [1e-12, MAX_MEAN], 0.05, 0.8, 0.05)
    def test_array_tuning_matches_oracle_bisection(self, stages, targets, herald, stage, optics):
        """Each entry's pump matches the oracle's own bisection on the mean
        summed over the closed-form distribution rows; the tolerance is the
        stop rule's 1e-10 relative, with room for the row sums."""
        src = Multiplexed(stages, 0.0, herald, stage, optics)
        pumps = tune_pair_mean([src], np.array(targets))[0]
        for pump, target in zip(pumps, targets):
            oracle = tune_pump(lambda mu: CountRows(src, 1.0).rows(mu).tolist(), target)
            assert pump == pytest.approx(oracle, rel=1e-8)

    # The pumps agree with the mask bisection within this relative bound
    # where they are normal floats.  Both means lie within TUNING_TOL *
    # min(1, target) of the target, so two pumps may differ by about twice
    # that over the mean's log-slope d(log mean)/d(log pump).  Over 1500
    # examples of this test's domain the largest difference was 2.1e-9, at
    # target 1 and pump 0.025, where that slope is about 0.1; over this
    # test's own examples it is 9.8e-11.
    ORACLE_RTOL = 1e-8

    @settings(CHECKS, max_examples=25)
    @given(
        st.lists(st.integers(1, MAX_STAGES), min_size=1, max_size=3),
        st.one_of(bisection_targets, st.lists(bisection_targets, min_size=1, max_size=3)),
        st.floats(1e-3, 1.0),
        st.floats(0.5, 1.0),
        st.floats(0.05, 1.0),
    )
    # Residuals of exactly 0 where the stop rule is 0: hi must still move.
    @example([2], 1.5e-323, 0.11366081601798575, 0.5781733249517932, 0.41637495242467326)
    @example([2, 3, 64], [1.0743e-319, 4.214e-321, 1e14], 0.008120532108251914,
             0.7267489447403257, 0.1773396123848065)
    def test_pumps_meet_the_stop_rule_near_the_mask_bisection(
        self, stages, targets, herald, stage, optics
    ):
        """Each pump's mean lies within the stop rule of its target, or the
        pump sits at adjacent floats whose means bracket the target, for one
        network and for a list of them, at a scalar target and at an array of
        them; and each normal pump matches the reference bisection.  A
        subnormal pump carries a few bits, and so does its mean, so pumps
        that differ in their leading bits can meet the stop rule alike: there
        only the stop rule is checked.  A tuning whose stop rule reads
        max(1, target) or 1 in place of min(1, target) fails here."""
        networks = [Multiplexed(m, 0.0, herald, stage, optics) for m in stages]
        for source in (networks[0], networks):
            got = np.asarray(tune_pair_mean(source, targets))
            target = np.broadcast_to(targets, got.shape)

            def mean_at(mu):
                return np.asarray(source_moments(source, mu).mean)

            stop = TUNING_TOL * np.minimum(1.0, target)
            residual = mean_at(got) - target
            met = (-np.maximum(stop, math.ulp(0.0)) < residual) & (residual < stop)
            below = mean_at(np.nextafter(got, 0.0)) < target
            above = target <= mean_at(np.nextafter(got, np.inf))
            bracketed = (below & (residual >= 0.0)) | ((residual < 0.0) & above)
            assert (met | bracketed).all(), (got, residual)

            expected = mask_bisection(mean_at, target)
            normal = expected >= np.finfo(np.float64).tiny
            np.testing.assert_allclose(got[normal], expected[normal], rtol=self.ORACLE_RTOL)

    def test_default_targets_take_at_most_twelve_evaluations(self, monkeypatch):
        """The reach check, the doubling and the Newton steps evaluate the
        closed forms at most 12 times for the default stage counts, at the
        default mean and over `intensity-sweep`'s default mean grid (the
        bisection took 36 and 45)."""
        calls = []
        herald = sources._herald
        monkeypatch.setattr(sources, "_herald", lambda *args: calls.append(args) or herald(*args))
        for means in (SweepConfig.mean_photons, np.array(_DEFAULT_MEAN_GRIDS["intensity-sweep"])):
            calls.clear()
            make_multiplexed(SweepConfig.stage_counts, means)
            assert 0 < len(calls) <= 12


# Small transmission grids holding both ends, in any order.
t_grids = st.lists(st.floats(0.0, 1.0), max_size=4).flatmap(
    lambda ts: st.permutations([0.0, 1.0, *ts])
)


def within_ulps(got, expected, ulps=4):
    return abs(got - expected) <= ulps * np.spacing(abs(expected))


class TestMeanGrid:
    """A source whose pump is an array (a mean grid) gives, entry by entry,
    the report of the source tuned to each mean alone."""

    @settings(CHECKS, max_examples=80)
    @given(
        st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=5),
        st.floats(0.0, 1.0),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        st.integers(1, 10**6),
        st.integers(1, 10),
    )
    def test_grid_report_matches_point_reports(self, means, t, eta, nu, stages):
        ch = Channel(t, eta)
        grid = np.array(means)
        snl = snl_report(grid, ch, nu)
        builds = (Coherent, lambda mean: make_multiplexed(stages, mean))
        for detector in Detector:
            for build in builds:
                source = build(grid)
                report = exact_report(source, detector, ch, nu)
                ratios = snl_ratio(report, snl)
                for i, mean in enumerate(means):
                    point_source = build(mean)
                    assert source_pump(source)[i] == source_pump(point_source)
                    point = exact_report(point_source, detector, ch, nu)
                    point_ratio = snl_ratio(point, snl_report(mean, ch, nu))
                    assert within_ulps(report.expectation[i], point.expectation)
                    assert within_ulps(report.variance[i], point.variance)
                    assert abs(report.bias[i] - point.bias) <= 1e-15
                    assert abs(report.mse[i] - point.mse) <= 1e-15
                    assert (report.relative_mse_percent[i] is None) == (
                        point.relative_mse_percent is None
                    )
                    assert (ratios[i] is None) == (point_ratio is None)
                    if point_ratio is not None:
                        assert within_ulps(ratios[i], point_ratio)


class TestTransmissionGrid:
    """A `Channel` carrying a transmission grid gives, entry by entry, the
    report of a float channel at that transmission."""

    @CHECKS
    @given(
        t_grids,
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        st.integers(1, 10**6),
        st.floats(1e-3, 10.0),
        st.integers(1, 10),
    )
    def test_grid_report_matches_point_reports(self, ts, eta, nu, mean, stages):
        grid = Channel(np.array(ts), eta)
        points = [Channel(t, eta) for t in ts]
        sources = (Coherent(mean), make_multiplexed(stages, mean), Fock(1))
        snl = snl_report(mean, grid, nu)
        point_snls = [snl_report(mean, ch, nu) for ch in points]
        for detector in Detector:
            for source in sources:
                report = exact_report(source, detector, grid, nu)
                ratios = snl_ratio(report, snl)
                for i, ch in enumerate(points):
                    point = exact_report(source, detector, ch, nu)
                    assert within_ulps(report.expectation[i], point.expectation)
                    assert within_ulps(report.variance[i], point.variance)
                    assert abs(report.bias[i] - point.bias) <= 1e-15
                    assert abs(report.mse[i] - point.mse) <= 1e-15
                    assert (report.relative_mse_percent[i] is None) == (
                        point.relative_mse_percent is None
                    )
                    assert (ratios[i] is None) == (snl_ratio(point, point_snls[i]) is None)
        for source in sources:
            floors = asymptotic_relative_mse_floor(source, grid)
            for i, ch in enumerate(points):
                floor = asymptotic_relative_mse_floor(source, ch)
                assert (floors[i] is None) == (floor is None)
                if floor is not None:
                    # 100 |bias| / t, with the bias within 1e-15.
                    assert abs(floors[i] - floor) <= 100.0 * 1e-15 / ch.transmission


def test_weak_herald_click_probability_does_not_cancel():
    """A herald efficiency of 1e-33 needs a pump of ~1e16 pairs for one
    photon, so every synchronized period carries a huge burst and clicks:
    the click probability at survival 1 is P_sync, not a cancelled 0."""
    src = make_multiplexed(1, 1.0, herald_eff=1e-33, stage_transmission=1.0,
                           optics_transmission=1.0)
    p_sync = sync_probability(1, src.pair_mean, 1e-33)
    assert p_sync > 0.0
    assert source_click_probabilities(src, 1.0)[1] == pytest.approx(p_sync, rel=1e-12)


def bits(value) -> tuple:
    """The shape of a float, None or array of them, and each entry's IEEE
    bytes (None as None)."""
    entries = np.asarray(value, dtype=object).ravel().tolist()
    return np.shape(value), [None if v is None else struct.pack("<d", v) for v in entries]


@st.composite
def network_batches(draw, survival_grid: bool, unit=st.floats(0.0, 1.0),
                    pump_values=st.floats(0.0, 10.0)):
    """Two to four multiplexed networks over every stage count and the
    calibration range `unit`, sharing a pump shape: float pumps, or a grid
    of M pumps each, as a mean grid (M,) or, against a survival grid, a
    column (M, 1)."""
    shapes = [(), (draw(st.integers(1, 3)), 1)]
    if not survival_grid:
        shapes.append(shapes[1][:1])
    shape = draw(st.sampled_from(shapes))
    size = math.prod(shape)
    return [
        Multiplexed(
            stages=draw(st.integers(1, MAX_STAGES)),
            pair_mean=(draw(pump_values) if not shape else
                       np.reshape(draw(st.lists(pump_values, min_size=size, max_size=size)), shape)),
            herald_eff=draw(unit),
            stage_transmission=draw(unit),
            optics_transmission=draw(unit),
        )
        for _ in range(draw(st.integers(2, 4)))
    ]


def grid_or_float(grid: bool):
    """A transmission or survival grid holding 0 and 1, or one value."""
    return t_grids.map(np.array) if grid else survivals


class TestNetworkAxis:
    """A list of `Multiplexed` sources is evaluated with a leading network
    axis: entry i is, bit for bit, what network i gives alone."""

    @staticmethod
    def assert_per_network(batched, alone):
        for i, single in enumerate(alone):
            assert bits(batched[i]) == bits(single), i

    @CHECKS
    @given(st.booleans().flatmap(
        lambda grid: st.tuples(network_batches(grid), grid_or_float(grid))))
    def test_moments_and_clicks(self, case):
        networks, survival = case
        moments = source_moments(networks)
        clicks = source_click_probabilities(networks, survival)
        alone = [(source_moments(n), source_click_probabilities(n, survival)) for n in networks]
        self.assert_per_network(moments.mean, [m.mean for m, _ in alone])
        self.assert_per_network(moments.variance, [m.variance for m, _ in alone])
        for side in range(2):
            self.assert_per_network(clicks[side], [c[side] for _, c in alone])

    @CHECKS
    @given(
        # Networks with a reference to divide by; one without fails the
        # whole list (`test_a_vacuum_network_fails_the_list`).
        st.booleans().flatmap(lambda grid: st.tuples(
            network_batches(grid, st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
                            st.floats(1e-3, 10.0)),
            grid_or_float(grid))),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        st.integers(1, 10**6),
    )
    def test_reports_and_floors(self, case, eta, nu):
        networks, t = case
        channel = Channel(t, eta)
        snl = snl_report(1.0, channel, nu)

        def evaluate(sources):
            """The reports for both detectors, their SNL ratios and the
            asymptotic floor, or the ValueError of a vanishing reference."""
            try:
                reports = [exact_report(sources, d, channel, nu) for d in Detector]
                floor = asymptotic_relative_mse_floor(sources, channel)
            except ValueError:
                return None
            return reports, [snl_ratio(r, snl) for r in reports], floor

        batched = evaluate(networks)
        alone = [evaluate(n) for n in networks]
        assert (batched is None) == (None in alone)
        if batched is None:
            return
        reports, ratios, floor = batched
        for k, report in enumerate(reports):
            for name in report._fields:
                field = getattr(report, name)
                if name in ("transmission", "nu"):
                    assert all(bits(field) == bits(getattr(a[0][k], name)) for a in alone)
                else:
                    self.assert_per_network(field, [getattr(a[0][k], name) for a in alone])
            self.assert_per_network(ratios[k], [a[1][k] for a in alone])
        self.assert_per_network(floor, [a[2] for a in alone])

    def test_a_vacuum_network_fails_the_list(self):
        """As it fails alone: its reference vanishes."""
        networks = [Multiplexed(2, 0.5), Multiplexed(3, 0.0)]
        for detector in Detector:
            with pytest.raises(ValueError, match="reference must be > 0"):
                exact_report(networks, detector, Channel(np.array([0.0, 0.5, 1.0])), 200)
