"""Sweep harness: grid shapes, determinism, self-description and the
experiment-level physics checks."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshot.detection import Channel
from subshot.estimators import Detector
from subshot.experiments import (
    EXPERIMENTS,
    MAX_MEAN,
    ConfigError,
    ROW_COLUMNS,
    SweepConfig,
    SweepRow,
    _exact_rows,
    _mean_grid,
    _sources,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)
from subshot.sources import MAX_PUMP, MAX_STAGES, Multiplexed, source_moments

# Fixed example sequence: the suite stays deterministic and writes no
# example database.
CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

log_uniform = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)


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
            values = row.as_dict()
            assert row.experiment == experiment
            assert row.nu == cfg.nu
            assert row.config_hash == cfg.digest()
            # mc-validate seeds its i-th configuration with seed + i.
            assert row.seed == cfg.seed + (index if experiment == "mc-validate" else 0)
            assert all(values[c] is not None for c in _ALWAYS_FILLED)
            assert (row.stages is not None) == (row.source == "multiplexed")
            assert {c for c in optional if values[c] is not None} == set(_FILLED[experiment])


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
        assert len(_mean_grid(cfg)) == size and max(_mean_grid(cfg)) == 1.0
        assert sorted({row.mean_photons for row in run_experiment(cfg)}) == list(_mean_grid(cfg))

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

    def test_digest_stable_and_sensitive(self):
        a = SweepConfig(experiment="nr-ratio")
        b = SweepConfig(experiment="nr-ratio")
        c = SweepConfig(experiment="nr-ratio", nu=400)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


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
        numeric = [f.name for f in fields(SweepRow) if f.type != "str"]
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

    def test_json_round_trip(self):
        import json

        cfg = SweepConfig(experiment="nr-ratio", t_grid=(0.5,), stage_counts=(2,))
        data = json.loads(rows_to_json(run_experiment(cfg)))
        assert len(data) == 3
        assert data[0]["experiment"] == "nr-ratio"
        assert set(data[0]) == set(ROW_COLUMNS)
