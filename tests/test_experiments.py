"""Sweep harness: grid shapes, determinism, self-description and the
experiment-level physics checks."""

import hashlib
import itertools
import math
import random
import tracemalloc
from dataclasses import fields, replace
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import rows_csv, rows_json
from subshot import output
from subshot import sources as source_models
from subshot.cli import PER_EXPERIMENT_DEFAULTS
from subshot.detection import Channel
from subshot.estimators import (
    Detector,
    asymptotic_relative_mse_floor,
    exact_report,
    reference_mean,
    snl_ratio,
    snl_report,
)
from subshot.experiments import (
    EXPERIMENTS,
    MAX_GRID_CELLS,
    MAX_MEAN,
    MAX_SAMPLED_PAIRS,
    MAX_STUDY_CELLS,
    MAX_STUDY_DRAWS,
    MAX_STUDY_NU,
    MAX_VALIDATE_SPREAD,
    MIN_THRESHOLD_REFERENCE,
    _MC_VALIDATE_STAGES,
    _THRESHOLD_ONLY,
    ConfigError,
    SweepConfig,
    _exact_rows,
    _grid_rows,
    _sources,
    _tuned_means,
    run_experiment,
)
from subshot.montecarlo import PUMP_Z_MAX, FluctuationConfig, fluctuation_study, mc_estimate
from subshot.output import ROW_COLUMNS, Indexed, RowTable, SweepRow, rows_to_csv, text_pieces
from subshot.sources import (
    MAX_PUMP,
    MAX_STAGES,
    Fock,
    Multiplexed,
    check_reach,
    make_multiplexed,
    source_moments,
    tune_pair_mean,
)

# Fixed example sequence: the suite stays deterministic and writes no
# example database.
CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

log_uniform = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)


def json_pieces(table):
    """The JSON text of `table` in the pieces the writers give, one block of
    rows at a time."""
    return (piece for (piece,) in text_pieces(table, ["json"]))


def small_grid(n=11):
    return tuple(float(t) for t in np.linspace(0.0, 1.0, n))


# Columns every row fills, whatever the experiment.
_ALWAYS_FILLED = ("experiment", "source", "detector", "t", "mean_photons", "nu", "seed", "config_hash")
_EXACT_REPORT = ("expectation", "bias", "variance", "mse", "relative_mse_percent", "ratio_to_snl")
# The other columns each experiment fills (at t > 0); the rest stay empty.
# `stages` is filled exactly on multiplexed rows.
_FILLED = {
    "nr-ratio": _EXACT_REPORT,
    "threshold-bias": _EXACT_REPORT,
    "threshold-ratio": _EXACT_REPORT,
    "intensity-sweep": _EXACT_REPORT,
    "asymptotic": ("asymptotic_floor_percent",),
    "fluctuations": ("fluctuation", "mse", "ci_low", "ci_high", "mse_exact", "z_mse"),
    "mc-validate": ("expectation", "mse", "mse_exact", "z_expectation", "z_mse"),
}


class TestRowLayout:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_filled_columns_and_provenance(self, experiment):
        cfg = SweepConfig(
            experiment=experiment,
            t_grid=(0.3, 0.7),
            stage_counts=(1, 2),
            mean_grid=(0.5,),
            a_grid=(0.0, 0.3),
            nu=20,
            rounds=3,
            trials=50,
            seed=11,
        )
        rows = run_experiment(cfg)
        assert rows
        optional = set(ROW_COLUMNS) - set(_ALWAYS_FILLED) - {"stages"}
        for index, row in enumerate(rows):
            values = row._asdict()
            assert row.experiment == experiment
            assert row.nu == cfg.nu
            assert row.config_hash == cfg.digest()
            # mc-validate seeds its i-th configuration with seed + i.
            assert row.seed == cfg.seed + (index if experiment == "mc-validate" else 0)
            assert all(values[c] is not None for c in _ALWAYS_FILLED)
            assert (row.stages is not None) == (row.source == "multiplexed")
            assert {c for c in optional if values[c] is not None} == set(_FILLED[experiment])


def _naive_row(cfg, source, detector, t, mean, **cells):
    """One row built cell by cell, by keyword."""
    if isinstance(source, Multiplexed):
        name, stages = "multiplexed", source.stages
    else:
        name, stages = ("fock" if isinstance(source, Fock) else "coherent"), None
    return SweepRow(
        experiment=cfg.experiment, source=name, detector=detector.value, stages=stages, t=t,
        mean_photons=mean, fluctuation=cells.pop("fluctuation", None), nu=cfg.nu,
        seed=cells.pop("seed", cfg.seed), config_hash=cfg.digest(), **cells,
    )


def _cell(field, index):
    """Entry `index` of a report field, flattened, as a Python number."""
    value = np.ravel(field)[index]
    return value.item() if isinstance(value, np.generic) else value


def _naive_exact_rows(cfg):
    """The rows of an exact experiment from the same report calls, one cell
    at a time: grid point, then detector, then source."""
    eta = cfg.detector_eff
    if cfg.experiment == "intensity-sweep":
        detectors, means = tuple(Detector), np.array(cfg.mean_grid)
        channel = Channel(cfg.transmission, eta)
        sources = _sources(cfg, means)
        points = [(cfg.transmission, m) for m in cfg.mean_grid]
    elif cfg.experiment == "asymptotic":
        detectors, means = (Detector.THRESHOLD,), np.array(cfg.mean_grid)[:, None]
        channel = Channel(np.array(cfg.t_grid), eta)
        sources = _sources(cfg, means)
        points = [(t, m) for m in cfg.mean_grid for t in cfg.t_grid]
    else:
        nr = cfg.experiment == "nr-ratio"
        detectors = (Detector.NUMBER_RESOLVING if nr else Detector.THRESHOLD,)
        means, channel = cfg.mean_photons, Channel(np.array(cfg.t_grid), eta)
        sources = _sources(cfg, means) + [Fock(1)]
        points = [(t, cfg.mean_photons) for t in cfg.t_grid]
    pairs = [(source, detector) for detector in detectors for source in sources]
    if cfg.experiment == "asymptotic":
        fields_of = [
            {"asymptotic_floor_percent": asymptotic_relative_mse_floor(source, channel)}
            for source, _ in pairs
        ]
    else:
        snl = snl_report(means, channel, cfg.nu)
        fields_of = []
        for source, detector in pairs:
            report = exact_report(source, detector, channel, cfg.nu)
            fields_of.append({
                "expectation": report.expectation,
                "bias": report.bias,
                "variance": report.variance,
                "mse": report.mse,
                "relative_mse_percent": report.relative_mse_percent,
                "ratio_to_snl": snl_ratio(report, snl),
            })
    return [
        _naive_row(cfg, source, detector, t, m,
                   **{name: _cell(field, g) for name, field in report_fields.items()})
        for g, (t, m) in enumerate(points)
        for (source, detector), report_fields in zip(pairs, fields_of)
    ]


class TestRowOrder:
    """`_rows` builds a run's rows from columns; a row built cell by cell
    from the same calls must equal it, in the same order."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        experiment=st.sampled_from(
            ["nr-ratio", "threshold-ratio", "intensity-sweep", "asymptotic"]
        ),
        t_grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        mean_grid=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
        stage_counts=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        mean=st.floats(0.05, 1.0),
        nu=st.integers(1, 500),
    )
    def test_exact_rows_match_a_cell_by_cell_build(
        self, experiment, t_grid, mean_grid, stage_counts, mean, nu
    ):
        cfg = SweepConfig(
            experiment=experiment, t_grid=tuple(t_grid), mean_grid=tuple(mean_grid),
            stage_counts=tuple(stage_counts), mean_photons=mean, nu=nu,
        )
        rows = run_experiment(cfg)
        naive = _naive_exact_rows(cfg)
        assert rows == naive
        for row, expected in zip(rows, naive):
            assert list(map(type, row)) == list(map(type, expected))

    def test_fluctuation_rows_run_over_pairs_then_a(self):
        cfg = SweepConfig(
            experiment="fluctuations", a_grid=(0.0, 0.2, 0.5), stage_counts=(2, 4),
            mean_photons=0.5, rounds=4, nu=30, seed=5,
        )
        mc_cfg = FluctuationConfig(cfg.a_grid, cfg.rounds, cfg.nu, cfg.redraw, cfg.negatives)
        t, mean = cfg.transmission, cfg.mean_photons
        pairs = [(source, detector) for detector in Detector for source in _sources(cfg, mean)]
        studies = fluctuation_study(mc_cfg, pairs, Channel(t, cfg.detector_eff), cfg.seed)
        naive = [
            _naive_row(cfg, source, detector, t, mean, fluctuation=s.fluctuation, mse=s.mean_mse,
                       ci_low=s.ci_low, ci_high=s.ci_high, mse_exact=s.mse_exact,
                       z_mse=(s.mean_mse - s.mse_exact) / s.mse_se if s.mse_se > 0 else 0.0)
            for (source, detector), summaries in zip(pairs, studies)
            for s in summaries
        ]
        assert [s.fluctuation for s in studies[0]] == list(cfg.a_grid)
        assert run_experiment(cfg) == naive

    def test_mc_validate_rows_run_over_the_canned_set_seeded_seed_plus_i(self):
        cfg = SweepConfig(experiment="mc-validate", trials=100, nu=20, seed=40)
        t, mean = cfg.transmission, cfg.mean_photons
        ch = Channel(t, cfg.detector_eff)
        coherent, mux2, mux5 = _sources(replace(cfg, stage_counts=(2, 5)), mean)
        nr, threshold = Detector.NUMBER_RESOLVING, Detector.THRESHOLD
        canned = [(coherent, nr), (coherent, threshold), (Fock(1), nr), (Fock(1), threshold),
                  (mux2, nr), (mux5, threshold)]
        naive = []
        for index, (source, detector) in enumerate(canned):
            exact = exact_report(source, detector, ch, cfg.nu)
            mc = mc_estimate(source, detector, ch, cfg.nu, cfg.trials, seed=cfg.seed + index)
            naive.append(_naive_row(
                cfg, source, detector, t, mean, seed=cfg.seed + index,
                expectation=mc.expectation, mse=mc.mse, mse_exact=exact.mse,
                z_expectation=(mc.expectation - exact.expectation) / mc.expectation_se,
                z_mse=(mc.mse - exact.mse) / mc.mse_se,
            ))
        rows = run_experiment(cfg)
        assert [row.seed for row in rows] == [40, 41, 42, 43, 44, 45]
        assert rows == naive


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            run_experiment(SweepConfig(experiment="nope"))
        assert "experiment" in str(err.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("t_grid", (1.2,)),
            ("t_grid", (0.5, math.nan)),
            ("t_grid", ()),
            ("stage_counts", (0,)),
            ("stage_counts", (2, MAX_STAGES + 1)),
            ("mean_grid", (-1.0,)),
            ("a_grid", (0.9,)),
            ("a_grid", ()),
            ("mean_photons", 0.0),
            ("transmission", 1.5),
            ("transmission", math.nan),
            ("herald_eff", math.nan),
            ("optics_transmission", 1.5),
            ("detector_eff", -0.2),
            ("detector_eff", 0.0),
            ("nu", 0),
            ("rounds", 1),
            ("trials", 0),
            ("redraw", "sometimes"),
            ("negatives", "ignore"),
            # Not a Python number, or for a grid not a sequence of them: named
            # here, so show-config refuses them too, not left to a TypeError.
            ("t_grid", 0.5),
            ("stage_counts", 3),
            ("a_grid", 0.3),
            ("t_grid", None),
            ("t_grid", "0.5"),
            ("t_grid", np.array(0.5)),
            ("mean_grid", ("abc",)),
            ("t_grid", (None,)),
            ("a_grid", ("0.1",)),
            ("stage_counts", ("3",)),
            ("transmission", "0.5"),
            ("detector_eff", "0.9"),
            ("mean_photons", None),
            ("herald_eff", 1j),
            ("nu", "200"),
            ("seed", None),
        ],
    )
    def test_invalid_field_named(self, field, value):
        cfg = SweepConfig(experiment="nr-ratio", **{field: value})
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [("nu", 2.5), ("rounds", 3.5), ("trials", 10.5), ("seed", 0.5), ("stage_counts", (1, 2.5))],
    )
    @pytest.mark.parametrize("experiment", ["nr-ratio", "mc-validate"])
    def test_fractional_count_named(self, experiment, field, value):
        """A fractional count is named by `validate`, not written into rows
        (nr-ratio with nu 2.5) or left to the sampler's bare ValueError
        (mc-validate)."""
        with pytest.raises(ConfigError) as err:
            run_experiment(SweepConfig(experiment=experiment, **{field: value}))
        assert err.value.field == field

    def test_integral_float_counts_accepted(self):
        cfg = SweepConfig(experiment="mc-validate", nu=20.0, trials=10.0, stage_counts=(2.0,))
        cfg.validate()
        assert (cfg.nu, cfg.trials, cfg.stage_counts) == (20, 10, (2,))
        assert isinstance(cfg.nu, int) and isinstance(cfg.stage_counts[0], int)

    def test_stage_count_cap(self):
        SweepConfig(experiment="nr-ratio", stage_counts=(MAX_STAGES,)).validate()
        with pytest.raises(ConfigError) as err:
            SweepConfig(experiment="nr-ratio", stage_counts=(MAX_STAGES + 1,)).validate()
        assert err.value.field == "stage_counts"

    def test_largest_stage_count_tunes_cleanly(self):
        """RuntimeWarnings are errors here, so an overflow while tuning fails."""
        rows = run_experiment(
            SweepConfig(experiment="nr-ratio", t_grid=(0.5,), stage_counts=(MAX_STAGES,))
        )
        assert all(np.isfinite(r.mse) for r in rows)

    @pytest.mark.parametrize(
        "field, at_cap, above",
        [
            ("mean_photons", MAX_MEAN, 2 * MAX_MEAN),
            ("mean_grid", (0.5, MAX_MEAN), (0.5, 2 * MAX_MEAN)),
        ],
    )
    def test_mean_cap(self, field, at_cap, above):
        SweepConfig(experiment="nr-ratio", **{field: at_cap}).validate()
        with pytest.raises(ConfigError) as err:
            SweepConfig(experiment="nr-ratio", **{field: above}).validate()
        assert err.value.field == field

    def test_per_repetition_mean_cap(self):
        """Validated only: per-repetition runs, like per-round runs and other
        experiments, take means up to MAX_MEAN and refuse larger ones by
        name."""
        per_repetition = {"experiment": "fluctuations", "redraw": "per-repetition"}
        SweepConfig(**per_repetition, mean_photons=MAX_MEAN).validate()
        SweepConfig(experiment="fluctuations", mean_photons=MAX_MEAN).validate()
        with pytest.raises(ConfigError) as err:
            SweepConfig(**per_repetition, mean_photons=2 * MAX_MEAN).validate()
        assert err.value.field == "mean_photons"

    @pytest.mark.parametrize("experiment, size", [("intensity-sweep", 20), ("asymptotic", 3)])
    def test_default_mean_grid_is_the_swept_one(self, experiment, size):
        cfg = SweepConfig(experiment=experiment, t_grid=(0.5,), stage_counts=(2,))
        assert len(_tuned_means(cfg)) == size and max(_tuned_means(cfg)) == 1.0
        means = sorted({row.mean_photons for row in run_experiment(cfg)})
        assert means == list(_tuned_means(cfg))

    def test_reach_checks_the_means_the_run_tunes(self):
        """A 64-stage network whose largest mean lies between 0.5 and 1 runs
        nr-ratio at mean 0.5, but not intensity-sweep, whose default grid
        ends at 1."""
        lossy = {"stage_counts": (64,), "stage_transmission": 1.24e-4, "mean_photons": 0.5}
        top = source_moments(Multiplexed(64, MAX_PUMP, 0.9, 1.24e-4, 0.9)).mean
        assert 0.5 < top < 1.0
        SweepConfig(experiment="nr-ratio", **lossy).validate()
        with pytest.raises(ConfigError) as err:
            SweepConfig(experiment="intensity-sweep", **lossy).validate()
        assert err.value.field == "stage_transmission"

    def test_mc_validate_checks_its_own_stage_counts(self):
        """One stage reaches the mean through a 1e-60 stage, but the 5 stages
        of the canned mc-validate set do not, whatever `stage_counts` says."""
        lossy = {"stage_counts": (1,), "stage_transmission": 1e-60}
        SweepConfig(experiment="nr-ratio", **lossy).validate()
        with pytest.raises(ConfigError) as err:
            SweepConfig(experiment="mc-validate", **lossy).validate()
        assert err.value.field == "stage_transmission"

    @CHECKS
    @given(
        herald_eff=log_uniform,
        stage_transmission=log_uniform,
        optics_transmission=log_uniform,
        detector_eff=log_uniform,
        stages=st.integers(1, MAX_STAGES),
        mean=st.floats(-300.0, math.log10(MAX_MEAN)).map(lambda e: 10.0**e),
        transmission=st.floats(0.0, 1.0),
    )
    def test_every_source_config_tunes_or_names_a_field(
        self, herald_eff, stage_transmission, optics_transmission, detector_eff, stages, mean,
        transmission,
    ):
        """A validated config builds every source at its tuned mean and gives
        finite exact rows for both detectors, without an exception or
        RuntimeWarning (both fail the suite); any other config is rejected by
        a field name."""
        cfg = SweepConfig(
            experiment="nr-ratio",
            stage_counts=(stages,),
            mean_photons=mean,
            detector_eff=detector_eff,
            herald_eff=herald_eff,
            stage_transmission=stage_transmission,
            optics_transmission=optics_transmission,
        )
        try:
            cfg.validate()
        except ConfigError as err:
            assert err.field in {f.name for f in fields(SweepConfig)}
            return
        sources = _sources(cfg, mean)
        for source in sources:
            assert abs(source_moments(source).mean - mean) <= 1e-9 * mean
        channel = Channel(transmission, detector_eff)
        for row in _exact_rows(cfg, sources, Detector, channel, mean):
            for name in ("expectation", "bias", "variance", "mse", "relative_mse_percent",
                         "ratio_to_snl"):
                value = getattr(row, name)
                assert value is None or math.isfinite(value), (name, row)

    @CHECKS
    @given(
        herald_eff=st.one_of(st.just(0.0), log_uniform),
        stage_transmission=st.one_of(st.just(0.0), log_uniform),
        optics_transmission=st.one_of(st.just(0.0), log_uniform),
        stages=st.integers(1, MAX_STAGES),
        mean=st.floats(-99.0, math.log10(MAX_MEAN)).map(lambda e: 10.0**e),
        near_reach=st.one_of(st.none(), st.floats(-0.3, 0.3).map(lambda e: 10.0**e)),
    )
    @example(herald_eff=0.0, stage_transmission=0.0, optics_transmission=0.9, stages=3, mean=1.0,
             near_reach=None)
    @example(herald_eff=0.9, stage_transmission=0.88, optics_transmission=0.0, stages=3, mean=1.0,
             near_reach=None)
    @example(herald_eff=0.9, stage_transmission=1e-10, optics_transmission=0.9, stages=64,
             mean=1.0, near_reach=None)
    @example(herald_eff=0.9, stage_transmission=1.24e-4, optics_transmission=0.9, stages=64,
             mean=1.0, near_reach=0.9)
    @example(herald_eff=0.9, stage_transmission=1.24e-4, optics_transmission=0.9, stages=64,
             mean=1.0, near_reach=1.0)
    @example(herald_eff=0.9, stage_transmission=1.24e-4, optics_transmission=0.9, stages=64,
             mean=1.0, near_reach=1.1)
    def test_tuning_and_validation_share_one_reach_rule(
        self, herald_eff, stage_transmission, optics_transmission, stages, mean, near_reach
    ):
        """`tune_pair_mean` refuses a target exactly when `validate` refuses
        the nr-ratio config that tunes it, and both name the same field.
        Means start at 1e-99, where the estimator reference check passes;
        given `near_reach`, the mean is that multiple of the largest mean
        the network reaches."""
        network = Multiplexed(stages, 0.0, herald_eff, stage_transmission, optics_transmission)
        if near_reach is not None:
            with np.errstate(all="ignore"):  # the variance overflows at MAX_PUMP
                reach = source_moments(replace(network, pair_mean=MAX_PUMP)).mean
            if 1e-99 <= reach * near_reach <= MAX_MEAN:
                mean = reach * near_reach
        cfg = SweepConfig(
            experiment="nr-ratio",
            stage_counts=(stages,),
            mean_photons=mean,
            herald_eff=herald_eff,
            stage_transmission=stage_transmission,
            optics_transmission=optics_transmission,
        )

        def refused(call):
            try:
                call()
            except ConfigError as err:
                return err.field
            return None

        assert refused(lambda: tune_pair_mean(network, mean)) == refused(cfg.validate)

    def test_list_and_array_fields_are_tuples(self):
        """A list or a numpy array for a tuple field is stored as a tuple of
        Python numbers, so the digest and every CSV byte are those of the
        tuple config."""
        literal = SweepConfig(experiment="nr-ratio", t_grid=(0.0, 0.5, 1.0), stage_counts=(1, 3))
        csv = rows_to_csv(run_experiment(literal)).encode()
        for t_grid, stage_counts in (
            ([0.0, 0.5, 1.0], [1, 3]),
            (np.linspace(0.0, 1.0, 3), np.array([1, 3])),
            (np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0])),
        ):
            cfg = SweepConfig(experiment="nr-ratio", t_grid=t_grid, stage_counts=stage_counts)
            assert (cfg.t_grid, cfg.stage_counts) == (literal.t_grid, literal.stage_counts)
            assert type(cfg.t_grid) is tuple and type(cfg.stage_counts[0]) is int
            assert cfg.digest() == literal.digest()
            assert rows_to_csv(run_experiment(cfg)).encode() == csv

    @pytest.mark.parametrize("stage_counts", [[1.5], np.array([1.5]), (1, 2.5)])
    def test_fractional_count_in_a_list_or_array_named(self, stage_counts):
        with pytest.raises(ConfigError) as err:
            SweepConfig(experiment="nr-ratio", stage_counts=stage_counts).validate()
        assert err.value.field == "stage_counts"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            *(({"stage_counts": (m,)}, "stage_counts") for m in (0, 2.5, 65)),
            *(({name: value}, name)
              for name in ("herald_eff", "stage_transmission", "optics_transmission")
              for value in (math.nan, -0.1, 1.5)),
            # The first bad field of the first bad network.
            ({"stage_counts": (3, 2000), "herald_eff": 2.0}, "herald_eff"),
        ],
    )
    def test_validation_and_source_building_name_the_same_field(self, overrides, field):
        """`validate` checks the networks with the checks of `Multiplexed`,
        so `validate` and `make_multiplexed` name a bad network input alike,
        `stages` standing for `stage_counts`."""
        cfg = SweepConfig(experiment="nr-ratio", **overrides)
        with pytest.raises(ConfigError) as validated:
            cfg.validate()
        with pytest.raises(ConfigError) as built:
            make_multiplexed(cfg.stage_counts, cfg.mean_photons, cfg.herald_eff,
                             cfg.stage_transmission, cfg.optics_transmission)
        assert validated.value.field == field
        assert {"stages": "stage_counts"}.get(built.value.field, built.value.field) == field

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_count_named(self, value):
        """int() cannot convert it, so it is left for `validate` to name."""
        with pytest.raises(ConfigError) as err:
            SweepConfig(experiment="nr-ratio", nu=value).validate()
        assert err.value.field == "nu"

    def test_digest_stable_and_sensitive(self):
        a = SweepConfig(experiment="nr-ratio")
        b = SweepConfig(experiment="nr-ratio")
        c = SweepConfig(experiment="nr-ratio", nu=400)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


# Herald efficiencies down to the smallest subnormal.
weak_herald = st.floats(-323.0, 0.0).map(lambda e: 10.0**e)


def tuned_pairs(networks, means) -> np.ndarray:
    """Pairs per window at the sample, shape (networks, means), of `networks`
    tuned to each of `means`."""
    transmissions = [n.stage_transmission**n.stages * n.optics_transmission for n in networks]
    return tune_pair_mean(networks, np.asarray(means)) * np.array(transmissions)[:, None]


def command_line_config(experiment, overrides) -> SweepConfig:
    """The config the command line runs for `experiment` with `overrides`
    as flags."""
    return SweepConfig(experiment, **{**PER_EXPERIMENT_DEFAULTS.get(experiment, {}), **overrides})


class TestPairLimits:
    """A weak herald needs rare bursts of many pairs, which `validate`
    bounds (`SweepConfig._validate_pairs`).  Checked through `validate` and
    the closed forms only: no config here builds its count rows."""

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("nr-ratio", {"herald_eff": 1e-320, "stage_counts": (1,), "t_grid": (0.5,)}),
            ("nr-ratio", {"herald_eff": 5e-324}),
            ("threshold-ratio", {"herald_eff": 1e-306, "stage_counts": (1,)}),
            ("intensity-sweep", {"herald_eff": 1e-307}),
            ("asymptotic", {"herald_eff": 2.2250738585072014e-308}),
            *(("mc-validate", {"herald_eff": h}) for h in (1e-11, 1e-13, 1e-15, 1e-16, 1e-300)),
            # Accepted at the default nu = 200; the limit shrinks like 1/sqrt(nu).
            ("mc-validate", {"herald_eff": 1e-10, "nu": 1000}),
            *(("fluctuations", {"herald_eff": h}) for h in (1e-13, 1e-16, 1e-300)),
            ("fluctuations", {"herald_eff": 1e-11, "redraw": "per-repetition"}),
        ],
    )
    def test_weak_herald_named(self, experiment, overrides):
        with pytest.raises(ConfigError) as err:
            command_line_config(experiment, overrides).validate()
        assert err.value.field == "herald_eff"
        assert "pairs per window at the sample" in err.value.reason

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            # Each runs clean under -W error, in the time beside it (one
            # process on 2 vCPUs).
            ("nr-ratio", {"herald_eff": 1e-300, "stage_counts": (1,)}),  # 0.2 s
            ("nr-ratio", {"herald_eff": 1e-308, "stage_counts": (1,)}),  # 0.2 s
            ("threshold-ratio", {"herald_eff": 1e-305, "stage_counts": (1,)}),  # 0.2 s
            ("intensity-sweep", {"herald_eff": 1e-300}),  # 0.3 s
            ("asymptotic", {"herald_eff": 1e-300}),  # 0.3 s
            ("mc-validate", {"herald_eff": 1e-10}),  # 0.23 s
            ("fluctuations", {"herald_eff": 1e-12}),  # 2.8 s
            ("fluctuations", {"herald_eff": 1e-10, "redraw": "per-repetition"}),  # 1.2 s
            ("mc-validate", {"mean_photons": MAX_MEAN}),  # 0.27 s
            ("fluctuations", {"mean_photons": MAX_MEAN, "redraw": "per-repetition"}),  # 1.2 s
            ("mc-validate", {"herald_eff": 3.5e-10, "nu": 1000}),  # 0.23 s
            ("mc-validate", {"mean_photons": MAX_MEAN, "nu": 10_000}),  # 0.36 s
        ],
    )
    def test_what_ran_before_is_accepted(self, experiment, overrides):
        command_line_config(experiment, overrides).validate()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_validate_evaluates_the_closed_forms_once(self, experiment, monkeypatch):
        """At its defaults, an experiment's reach and pair limits are
        decided by one closed-form evaluation of the mean, counted as in
        `test_default_targets_take_at_most_twelve_evaluations`."""
        calls = []
        herald = source_models._herald
        monkeypatch.setattr(source_models, "_herald",
                            lambda *args: calls.append(args) or herald(*args))
        command_line_config(experiment, {}).validate()
        assert len(calls) == 1

    @settings(CHECKS, max_examples=100)
    @given(
        herald_eff=weak_herald,
        stages=st.lists(st.integers(1, MAX_STAGES), min_size=1, max_size=3),
        means=st.lists(st.floats(-99.0, 4.0).map(lambda e: 10.0**e), min_size=1, max_size=3),
        limit=st.floats(-2.0, 170.0).map(lambda e: 10.0**e),
    )
    def test_check_reach_refuses_where_the_tuned_pump_passes_the_limit(
        self, herald_eff, stages, means, limit
    ):
        """The one closed-form evaluation at the limit refuses exactly the
        targets whose tuned pump puts more pairs per window at the sample
        than the limit, up to the tuning's tolerance."""
        networks = [Multiplexed(m, 0.0, herald_eff) for m in stages]
        try:
            check_reach(networks, means)
        except ConfigError:
            return
        pairs = tuned_pairs(networks, means)
        try:
            check_reach(networks, means, {"reason": limit})
        except ConfigError as err:
            assert err.field == "herald_eff"
            assert pairs.max() > limit * (1 - 1e-8)
        else:
            assert pairs.max() <= limit * (1 + 1e-8)

    @settings(CHECKS, max_examples=150)
    @given(
        experiment=st.sampled_from(EXPERIMENTS),
        redraw=st.sampled_from(("per-round", "per-repetition")),
        herald_eff=weak_herald,
        stages=st.lists(st.integers(1, MAX_STAGES), min_size=1, max_size=2),
        mean=st.floats(-99.0, 4.0).map(lambda e: 10.0**e),
    )
    # Just inside each limit.
    @example(experiment="nr-ratio", redraw="per-round", herald_eff=1e-308, stages=[1], mean=1.0)
    @example(experiment="threshold-ratio", redraw="per-round", herald_eff=1e-305, stages=[1],
             mean=1.0)
    @example(experiment="fluctuations", redraw="per-round", herald_eff=8.4e-13, stages=[3],
             mean=0.5)
    @example(experiment="fluctuations", redraw="per-repetition", herald_eff=8.4e-11, stages=[3],
             mean=0.5)
    def test_accepted_configs_keep_their_closed_forms_and_rows_in_range(
        self, experiment, redraw, herald_eff, stages, mean
    ):
        """At the pumps a validated run tunes: the threshold reference stays
        above MIN_THRESHOLD_REFERENCE, the number-resolving moments at the
        largest pump evaluated are finite without a RuntimeWarning (an error
        here), and the sampled pairs stay within MAX_SAMPLED_PAIRS."""
        sweeps = experiment in ("intensity-sweep", "asymptotic")
        cfg = SweepConfig(experiment=experiment, redraw=redraw, herald_eff=herald_eff,
                          stage_counts=tuple(stages), mean_photons=mean,
                          mean_grid=(mean, 1.0) if sweeps else ())
        try:
            cfg.validate()
        except ConfigError as err:
            assert err.field in {f.name for f in fields(SweepConfig)}
            return
        stages = _MC_VALIDATE_STAGES if experiment == "mc-validate" else cfg.stage_counts
        networks = make_multiplexed(stages, np.array(_tuned_means(cfg)), herald_eff)
        top = 1.0 + PUMP_Z_MAX * max(cfg.a_grid) if experiment == "fluctuations" else 1.0
        if experiment != "nr-ratio":
            assert np.all(reference_mean(networks, Detector.THRESHOLD, cfg.detector_eff)
                          >= MIN_THRESHOLD_REFERENCE)
        if experiment not in _THRESHOLD_ONLY:
            pumps = np.array([n.pair_mean for n in networks])
            moments = source_moments(networks, top * pumps)
            assert np.isfinite(moments.variance).all()
        cap = MAX_SAMPLED_PAIRS.get(redraw if experiment == "fluctuations" else experiment)
        if cap is not None:
            assert tuned_pairs(networks, _tuned_means(cfg)).max() * top <= cap * (1 + 1e-8)


class TestSamplingCaps:
    """Monte Carlo runs whose arrays or total count laws would outgrow any
    machine are refused by name through `validate`
    (`SweepConfig._validate_sampling`), and so is an `asymptotic` grid past
    `MAX_GRID_CELLS`; no config here is run."""

    # The command line's fluctuation pairs, 3 sources (coherent, m = 3 and 5)
    # x 2 detectors, at 7 fractions.
    DEFAULT_CELLS_PER_ROUND = 6 * 7
    # A grid of the largest size the grid parser gives.
    GRID_1E5 = tuple(np.linspace(0.01, 1.0, 10**5).tolist())

    @pytest.mark.parametrize(
        "experiment, overrides, field",
        [
            ("fluctuations", {"nu": MAX_STUDY_NU + 1, "rounds": 2}, "nu"),
            ("fluctuations", {"nu": 2_000_000_000, "rounds": 100_000_000}, "nu"),
            ("fluctuations", {"nu": 2_000_000_000, "redraw": "per-repetition"}, "nu"),
            ("fluctuations", {"nu": MAX_STUDY_NU, "rounds": MAX_STUDY_DRAWS // MAX_STUDY_NU + 1},
             "rounds"),
            ("fluctuations", {"rounds": 100_000_000}, "rounds"),
            ("fluctuations", {"stage_counts": (1,), "a_grid": (0.0,),
                              "rounds": MAX_STUDY_CELLS // 4 + 1}, "rounds"),
            ("fluctuations", {"redraw": "per-repetition",
                              "rounds": MAX_STUDY_CELLS // DEFAULT_CELLS_PER_ROUND + 1}, "rounds"),
            ("mc-validate", {"nu": 10**15}, "nu"),
            ("mc-validate", {"nu": int(MAX_VALIDATE_SPREAD) + 1}, "nu"),
            ("mc-validate", {"nu": 10**6, "mean_photons": 100.5}, "nu"),
            # The (mean x transmission) grid of `asymptotic`.
            ("asymptotic", {"mean_grid": GRID_1E5, "t_grid": GRID_1E5}, "t_grid"),
            ("asymptotic", {"mean_grid": (0.2, 0.5, 1.0, 2.0), "t_grid": GRID_1E5}, "t_grid"),
            ("asymptotic", {"t_grid": (0.5,) * (MAX_GRID_CELLS // 3 + 1)}, "t_grid"),
        ],
    )
    def test_past_a_cap_named(self, experiment, overrides, field):
        with pytest.raises(ConfigError) as err:
            command_line_config(experiment, overrides).validate()
        assert err.value.field == field

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            # At each cap.
            ("fluctuations", {"nu": MAX_STUDY_NU, "rounds": 2}),
            ("fluctuations", {"nu": MAX_STUDY_NU, "rounds": MAX_STUDY_DRAWS // MAX_STUDY_NU}),
            ("fluctuations", {"stage_counts": (1,), "a_grid": (0.0,),
                              "rounds": MAX_STUDY_CELLS // 4}),
            ("mc-validate", {"nu": int(MAX_VALIDATE_SPREAD)}),
            ("mc-validate", {"nu": 10**6, "mean_photons": 100.0}),
            ("mc-validate", {"nu": 10**4, "mean_photons": MAX_MEAN}),
            ("asymptotic", {"t_grid": (0.5,) * (MAX_GRID_CELLS // 3)}),
            # Only `asymptotic` evaluates the product of its grids.
            ("intensity-sweep", {"mean_grid": GRID_1E5, "t_grid": GRID_1E5}),
            # The runs the CI steps, the README and the ROADMAP name.
            ("fluctuations", {"redraw": "per-repetition", "nu": 10**6}),
            ("fluctuations", {"rounds": 20_000}),
            ("fluctuations", {"nu": 100_000, "rounds": 300}),
            ("mc-validate", {"nu": 10**6, "mean_photons": 30.0}),
            ("mc-validate", {"trials": 10**7}),
            # The exact reports take any nu and ignore rounds.
            ("nr-ratio", {"nu": 10**15, "rounds": 10**9}),
        ],
    )
    def test_at_a_cap_accepted(self, experiment, overrides):
        command_line_config(experiment, overrides).validate()


class TestNrRatio:
    def test_grid_shape_and_advantage(self):
        cfg = SweepConfig(
            experiment="nr-ratio", t_grid=small_grid(), stage_counts=(2, 5)
        )
        rows = run_experiment(cfg)
        # coherent + two stage counts + fock, for each t
        assert len(rows) == 11 * 4
        for row in rows:
            if row.source == "multiplexed" and row.t > 0:
                assert row.ratio_to_snl > 1.0
            if row.t == 0.0:
                assert row.ratio_to_snl is None
            assert abs(row.bias) < 1e-12

    def test_rows_are_self_describing(self):
        cfg = SweepConfig(experiment="nr-ratio", t_grid=(0.5,), stage_counts=(2,))
        rows = run_experiment(cfg)
        digest = cfg.digest()
        for row in rows:
            assert row.config_hash == digest
            assert row.nu == cfg.nu

    def test_exact_values_are_grid_free(self):
        """A finer grid reproduces coarse-grid values exactly at shared points."""
        coarse = run_experiment(
            SweepConfig(experiment="nr-ratio", t_grid=(0.5,), stage_counts=(3,))
        )
        fine = run_experiment(
            SweepConfig(experiment="nr-ratio", t_grid=(0.25, 0.5, 0.75), stage_counts=(3,))
        )
        pick = lambda rows: [
            r for r in rows if r.t == 0.5 and r.source == "multiplexed"
        ][0]
        assert abs(pick(coarse).mse - pick(fine).mse) < 1e-15
        assert abs(pick(coarse).ratio_to_snl - pick(fine).ratio_to_snl) < 1e-9


class TestThresholdExperiments:
    def test_bias_columns(self):
        cfg = SweepConfig(
            experiment="threshold-bias", t_grid=(0.0, 0.5, 1.0), stage_counts=(2,)
        )
        rows = run_experiment(cfg)
        for row in rows:
            if row.t in (0.0, 1.0):
                assert row.bias == pytest.approx(0.0, abs=1e-12)
            elif row.source in ("coherent", "multiplexed"):
                assert abs(row.bias) > 1e-6
            else:  # fock stays unbiased everywhere
                assert abs(row.bias) < 1e-12

    def test_ratio_beats_two_near_transparency(self):
        cfg = SweepConfig(
            experiment="threshold-ratio", t_grid=(0.9, 0.95, 1.0), stage_counts=(2,)
        )
        rows = run_experiment(cfg)
        best = max(
            r.ratio_to_snl for r in rows if r.source == "multiplexed" and r.ratio_to_snl
        )
        assert best > 2.0


class TestIntensitySweep:
    def test_peak_location_and_size(self):
        cfg = SweepConfig(
            experiment="intensity-sweep",
            mean_grid=tuple(float(x) for x in np.arange(0.1, 1.0001, 0.1)),
            stage_counts=(4,),
        )
        rows = run_experiment(cfg)
        nr = [r for r in rows if r.detector == "nr" and r.source == "multiplexed"]
        best = max(nr, key=lambda r: r.ratio_to_snl)
        assert best.ratio_to_snl > 1.3
        assert best.mean_photons < 1.0

    def test_retuned_mean_at_each_point(self):
        cfg = SweepConfig(
            experiment="intensity-sweep", mean_grid=(0.3, 0.9), stage_counts=(2,)
        )
        rows = run_experiment(cfg)
        # the unbiased NR expectation recovers t at every retuned mean
        for r in rows:
            if r.detector == "nr":
                assert r.expectation == pytest.approx(cfg.transmission, abs=1e-9)


class TestAsymptotic:
    def test_floor_columns(self):
        cfg = SweepConfig(
            experiment="asymptotic",
            t_grid=(0.3, 0.6, 1.0),
            mean_grid=(0.5,),
            stage_counts=(3,),
        )
        rows = run_experiment(cfg)
        assert len(rows) == 3 * 2  # coherent + one stage count, three t values
        for row in rows:
            if row.t == 1.0:
                assert row.asymptotic_floor_percent == pytest.approx(0.0, abs=1e-9)
        coh = {r.t: r for r in rows if r.source == "coherent"}
        mux = {r.t: r for r in rows if r.source == "multiplexed"}
        for t in (0.3, 0.6):
            assert mux[t].asymptotic_floor_percent < coh[t].asymptotic_floor_percent


class TestFluctuations:
    def test_row_layout(self):
        cfg = SweepConfig(
            experiment="fluctuations",
            a_grid=(0.0, 0.6),
            stage_counts=(5,),
            mean_photons=0.5,
            rounds=30,
        )
        rows = run_experiment(cfg)
        # two detectors x (coherent + one mux) x two grid points
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            assert row.ci_low <= row.ci_high
            assert row.mse > 0

    def test_deterministic(self):
        cfg = SweepConfig(
            experiment="fluctuations",
            a_grid=(0.0, 0.3),
            stage_counts=(3,),
            mean_photons=0.5,
            rounds=20,
        )
        assert run_experiment(cfg) == run_experiment(cfg)


class TestMcValidate:
    def test_all_configurations_within_four_sigma(self):
        cfg = SweepConfig(experiment="mc-validate", trials=20_000, seed=123)
        rows = run_experiment(cfg)
        assert len(rows) == 6
        assert {r.source for r in rows} == {"coherent", "fock", "multiplexed"}
        assert {r.detector for r in rows} == {"nr", "threshold"}
        for row in rows:
            assert abs(row.z_expectation) < 4.0
            assert abs(row.z_mse) < 4.0


class TestSerialization:
    def test_csv_shape_and_determinism(self):
        cfg = SweepConfig(experiment="nr-ratio", t_grid=(0.2, 0.8), stage_counts=(2,))
        rows = run_experiment(cfg)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(ROW_COLUMNS)
        assert len(lines) == len(rows) + 1
        assert "," in lines[1] and "." in lines[1]  # '.' decimal separator
        assert text == rows_to_csv(run_experiment(cfg))

    def test_numpy_built_config_writes_like_the_literal_one(self):
        """Numbers are stored as Python floats and ints, so numpy scalars
        change neither a CSV cell nor the digest, and no experiment puts a
        numpy scalar into a row."""
        built = SweepConfig(
            experiment="nr-ratio",
            t_grid=tuple(np.linspace(0.0, 1.0, 3)),
            stage_counts=(np.int64(2),),
            mean_photons=np.float64(1.0),
            nu=np.int64(200),
        )
        literal = SweepConfig(experiment="nr-ratio", t_grid=(0.0, 0.5, 1.0), stage_counts=(2,))
        assert built.digest() == literal.digest()
        assert rows_to_csv(run_experiment(built)).encode() == rows_to_csv(
            run_experiment(literal)
        ).encode()
        # The column types of `SweepRow.__annotations__`, evaluated.
        numeric = [name for name, kind in get_type_hints(SweepRow).items() if kind is not str]
        assert len(numeric) == len(ROW_COLUMNS) - 4  # all but the four str columns
        for experiment in EXPERIMENTS:
            cfg = replace(
                built,
                experiment=experiment,
                mean_grid=(np.float64(0.5),),
                a_grid=(0.0, np.float64(0.3)),
                rounds=np.int64(3),
                trials=np.int64(50),
            )
            for row in run_experiment(cfg):
                for name in numeric:
                    assert type(getattr(row, name)) in (float, int, type(None)), (experiment, name)

    # sha256 of the CSV of each experiment at a small config (nr-ratio at
    # its defaults, 808 rows), and of the default nr-ratio JSON, as written
    # since the pump tuning takes Newton steps (the commit after caec2fb);
    # the fluctuations CSV as written since round r draws from
    # `PCG64(seed).jumped(r)`.  Any change to the output bytes fails here.
    PINNED = {
        "nr-ratio": ({}, "90e296ad82b05fb88d6f4c36201e75029849964d31cb526e34d3199a59e61646"),
        "threshold-bias": (
            {"t_grid": (0.0, 0.25, 0.5, 0.75, 1.0), "stage_counts": (1, 3)},
            "d0b0e7debb8bedfb0eb87b62d575de1eba48a4b57e530973d125595e0ae02c4c",
        ),
        "threshold-ratio": (
            {"t_grid": (0.0, 0.3, 0.9, 1.0), "stage_counts": (2,), "detector_eff": 1.0},
            "88600dc4ab891ad67f6c0d4c300ce9a7753e429b31c5e2540a4ca97fa669a4fe",
        ),
        "intensity-sweep": (
            {"mean_grid": (0.2, 0.7), "stage_counts": (2, 4), "nu": 50},
            "49e3aa20a6868dfd828985e8ab62f1adfb2c8f671dcb602523adc2be5f9a3c95",
        ),
        "asymptotic": (
            {"t_grid": (0.3, 0.6, 1.0), "mean_grid": (0.5, 1.0), "stage_counts": (3,)},
            "cc9668fe76725299d00d3208820de0553e2e27027b041c03f96eb48fca605486",
        ),
        "fluctuations": (
            {"a_grid": (0.0, 0.3), "stage_counts": (3,), "mean_photons": 0.5, "rounds": 5,
             "nu": 50, "seed": 9},
            "ecaae6dc0a9148aadcf459abe3af16dae05054924be7ebfeedfbffdd5b0c3cc1",
        ),
        "mc-validate": (
            {"trials": 200, "nu": 20, "seed": 7},
            "66a21318a2e5cb252e25b52ebd2727223c887316d92fdfe83533410a13930f7b",
        ),
    }
    PINNED_NR_RATIO_JSON = "deedaa44842be78478816830cabef64f6aab3039f04e5acf79f2cf6dd51480b3"
    # The fluctuation modes the pins above leave out: per-repetition pump
    # redraws, and resampled negative pumps (the normal of round 10 sends
    # the pump at a = 0.6 below zero), and both redraw modes at mean 1e4,
    # whose count rows are longer than nu (~1e4 counts against 50 uniforms),
    # as written since round r draws from `PCG64(seed).jumped(r)`.
    PINNED_FLUCTUATION_MODES = {
        "per-repetition": (
            {"a_grid": (0.0, 0.3), "rounds": 5, "redraw": "per-repetition"},
            "42dc3afef641334db0fee998a22fc179f952088a05f6e9560bb0e4d6809d5a8f",
        ),
        "resample": (
            {"a_grid": (0.0, 0.6), "rounds": 12, "negatives": "resample"},
            "2cb73ce5765292f6602da11450eacfdc65b54581c3c46045b325257161930584",
        ),
        "per-round-mean-1e4": (
            {"mean_photons": 1e4, "a_grid": (0.0, 0.6), "rounds": 4},
            "bfb9d03732ea0c830222c5ab082cb4cbbfcb9dfd6bc563f1ed731ff871caff49",
        ),
        "per-repetition-mean-1e4": (
            {"mean_photons": 1e4, "a_grid": (0.0, 0.6), "rounds": 4, "redraw": "per-repetition"},
            "92430ac8525ee58327f29d5491cf7cf42bbd2b89a2ea611eaaed1e6b04dc8ba5",
        ),
    }

    def test_pins_every_experiment(self):
        assert set(self.PINNED) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_csv_bytes_are_pinned(self, experiment):
        overrides, digest = self.PINNED[experiment]
        rows = run_experiment(SweepConfig(experiment=experiment, **overrides))
        assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode", PINNED_FLUCTUATION_MODES)
    def test_fluctuation_mode_csv_bytes_are_pinned(self, mode):
        overrides, digest = self.PINNED_FLUCTUATION_MODES[mode]
        base = {"stage_counts": (3,), "mean_photons": 0.5, "nu": 50, "seed": 9}
        cfg = SweepConfig(experiment="fluctuations", **{**base, **overrides})
        assert hashlib.sha256(rows_to_csv(run_experiment(cfg)).encode()).hexdigest() == digest

    def test_json_bytes_are_pinned(self):
        rows = run_experiment(SweepConfig(experiment="nr-ratio"))
        digest = hashlib.sha256("".join(json_pieces(rows)).encode()).hexdigest()
        assert digest == self.PINNED_NR_RATIO_JSON

    def test_json_round_trip(self):
        import json

        cfg = SweepConfig(experiment="nr-ratio", t_grid=(0.5,), stage_counts=(2,))
        data = json.loads("".join(json_pieces(run_experiment(cfg))))
        assert len(data) == 3
        assert data[0]["experiment"] == "nr-ratio"
        assert set(data[0]) == set(ROW_COLUMNS)


# Cells that `str` and `json.dumps` spell in ways a writer can get wrong:
# both zeros and an int beside the equal float (equal, but spelled apart),
# NaN and both infinities, subnormals, the floats on either side of the
# switches of `repr` to exponent notation at 1e16 and 1e-4, and at 1e-5, a
# bool, None, and strings that JSON escapes or that read like a number.
_TRICKY_CELLS = (
    0.0, -0.0, 1, 1.0, math.nan, math.inf, -math.inf, 5e-324, 2.225073858507201e-308,
    1e16, 9999999999999998.0, 0.0001, 9.999999999999999e-05, 1e-05, 9.999999999999999e-06,
    123456789012345678, True, None,
    "coherent", 'a "quoted" \\ back', "tab\tline\n", "ünï", "nan", "",
)
# Kinds of columns; the last four follow the last `Indexed` or list column
# before them: an `Indexed` column over that very index list, that very
# list, a copy of it, and its cells each replaced by `_twin`.
_COLUMN_KINDS = ("repeated", "indexed", "same-index", "cells", "same-list", "twin", "copy")


def _twin(cell):
    """A cell that == `cell` but is spelled otherwise, where one exists: the
    other zero, and the float of an int or bool."""
    if type(cell) is float and cell == 0:
        return -cell
    if type(cell) in (int, bool):
        return float(cell)
    return cell


def _synthetic_table(n: int, layout, seed: int):
    """A `RowTable` of n rows whose column j is of kind `layout[j][0]` over
    the cells `layout[j][1]`, and the same rows built one by one.  A kind
    that follows a column, with no such column before it, is "indexed" or
    "cells"."""
    rng = random.Random(seed)
    columns, cells_of = [], []
    indexed = listed = None  # the last Indexed and list column
    for kind, pool in layout:
        index = [rng.randrange(len(pool)) for _ in range(n)]
        if kind == "same-index" and indexed:
            index = indexed.index
            pool = [pool[i % len(pool)] for i in range(len(indexed.values))]
        cells = [pool[i] for i in index]
        if kind == "repeated":
            columns.append(pool[0])
            cells = [pool[0]] * n
        elif kind in ("indexed", "same-index"):
            columns.append(indexed := Indexed(list(pool), index))
        else:
            if listed is not None and kind != "cells":
                cells = {"same-list": listed, "twin": [*map(_twin, listed)],
                         "copy": list(listed)}[kind]
            columns.append(listed := cells)
        cells_of.append(list(cells))
    return RowTable(n, columns), [SweepRow(*cells) for cells in zip(*cells_of)]


_LAYOUTS = st.lists(
    st.tuples(
        st.sampled_from(_COLUMN_KINDS),
        st.lists(
            st.one_of(st.sampled_from(_TRICKY_CELLS), st.floats(), st.integers(-(10**20), 10**20),
                      st.text(max_size=4)),
            min_size=1, max_size=5,
        ),
    ),
    min_size=len(ROW_COLUMNS), max_size=len(ROW_COLUMNS),
)
# Every tricky cell in every kind of column, each column starting elsewhere.
_TRICKY_LAYOUT = [
    (kind, _TRICKY_CELLS[j:] + _TRICKY_CELLS[:j])
    for j, kind in zip(range(len(ROW_COLUMNS)), itertools.cycle(_COLUMN_KINDS))
]


class TestWriters:
    """The column writers against the row-by-row writers of `_oracles.py`,
    byte for byte, on synthetic tables and block sizes."""

    @settings(CHECKS, max_examples=40)
    @given(
        block=st.integers(1, 5),
        # Row counts 0, 1, one block - 1, one block, one block + 1 and two
        # blocks + 1, as (blocks, extra rows).
        size=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),
        layout=_LAYOUTS,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(block=3, size=(2, 1), layout=_TRICKY_LAYOUT, seed=0)
    def test_column_writers_match_the_row_writers(self, block, size, layout, seed):
        n = max(0, size[0] * block + size[1])
        table, rows = _synthetic_table(n, layout, seed)
        with mock.patch.object(output, "_BLOCK_ROWS", block):
            assert rows_to_csv(table) == rows_csv(ROW_COLUMNS, rows)
            assert "".join(json_pieces(table)) == rows_json(rows)
            both = list(map("".join, zip(*output.text_pieces(table, ["csv", "json"]))))
            assert both == [rows_csv(ROW_COLUMNS, rows), rows_json(rows)]
        assert len(table) == n
        assert table == rows and rows == table
        assert list(table) == rows
        assert [table[i] for i in range(-n, n)] == rows + rows
        assert [list(map(type, row)) for row in table] == [list(map(type, row)) for row in rows]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges_at_the_block_size(self, extra):
        table, rows = _synthetic_table(output._BLOCK_ROWS + extra, _TRICKY_LAYOUT, extra)
        assert rows_to_csv(table) == rows_csv(ROW_COLUMNS, rows)
        assert "".join(json_pieces(table)) == rows_json(rows)
        both = list(map("".join, zip(*output.text_pieces(table, ["json", "csv"]))))
        assert both == [rows_json(rows), rows_csv(ROW_COLUMNS, rows)]

    def test_zero_rows(self):
        empty = RowTable(0, [[] for _ in ROW_COLUMNS])
        assert rows_to_csv(empty) == ",".join(ROW_COLUMNS) + "\n"
        assert "".join(json_pieces(empty)) == "[]\n"
        assert empty == [] and len(empty) == 0 and not empty

    def test_equal_cells_keep_their_own_spelling(self):
        """0.0 == -0.0 and 1 == 1.0, but each cell is written as itself,
        in an indexed column and in a column of one cell per row."""
        values = [0.0, -0.0, 1, 1.0, -0.0, 0.0]
        columns = {"t": Indexed(values[:4], [0, 1, 2, 3, 1, 0]), "mse": values}
        table = RowTable(6, [columns.get(name, "x") for name in ROW_COLUMNS])
        lines = rows_to_csv(table).splitlines()[1:]
        for name in columns:
            j = ROW_COLUMNS.index(name)
            assert [line.split(",")[j] for line in lines] == list(map(str, values))

    def test_grid_rows_share_only_bit_equal_columns(self):
        """`nr-ratio`'s `mse` column is its `variance` column, one list, and
        report columns that are equal but for the sign of a zero, or an int
        against a float, stay lists of their own and keep their spelling."""
        table = run_experiment(SweepConfig(experiment="nr-ratio", t_grid=small_grid(5)))
        column = dict(zip(ROW_COLUMNS, table.columns))
        assert column["mse"] is column["variance"]
        assert column["bias"] is not column["variance"]
        cfg = SweepConfig(experiment="nr-ratio", t_grid=(0.0, 0.5), stage_counts=(1,))
        pairs = [(source, Detector.NUMBER_RESOLVING) for source in _sources(cfg, 1.0)]
        fields = {  # each a field per pair over the t-grid
            "expectation": [np.array([0, 1])] * 2,
            "bias": [np.array([0.0, 1.0])] * 2,
            "variance": [np.array([-0.0, 1.0])] * 2,
            "mse": [np.array([-0.0, 1.0])] * 2,
            "relative_mse_percent": [np.array([0.0, 1.0])] * 2,
        }
        table = _grid_rows(cfg, pairs, Channel(np.array(cfg.t_grid), 0.9), 1.0, **fields)
        column = dict(zip(ROW_COLUMNS, table.columns))
        assert column["mse"] is column["variance"]
        assert column["bias"] is not column["expectation"]
        assert column["variance"] is not column["bias"]
        assert column["relative_mse_percent"] is not column["mse"]
        lines = rows_to_csv(table).splitlines()[1:]
        j = ROW_COLUMNS.index("expectation")
        assert {",".join(line.split(",")[j:j + 5]) for line in lines[:2]} == {"0,0.0,-0.0,-0.0,0.0"}
        assert "".join(json_pieces(table)) == rows_json(list(table))

    def test_tables_are_read_only_and_checked(self):
        table = run_experiment(SweepConfig(experiment="nr-ratio", t_grid=(0.5,), stage_counts=(2,)))
        with pytest.raises(TypeError):
            table[0] = table[1]
        with pytest.raises(IndexError):
            table[len(table)]
        with pytest.raises(ValueError, match="column t"):
            RowTable(2, [[0.5] if name == "t" else None for name in ROW_COLUMNS])

    def test_json_file_memory_does_not_grow_with_rows(self, tmp_path):
        """JSON goes to the file a block of rows at a time, so writing 4x the
        rows (a 4x finer t-grid) peaks within a small slack of the 1x peak;
        one string of the whole JSON would take ~5 MB more per 1024 t-points."""

        def peak(points):
            cfg = SweepConfig(experiment="threshold-ratio", t_grid=small_grid(points))
            table = run_experiment(cfg)
            tracemalloc.start()
            try:
                with open(tmp_path / "rows.json", "w") as out:
                    out.writelines(json_pieces(table))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(512), peak(2048)  # 4096 and 16384 rows
        assert four < 1.05 * one
