"""Configuration-driven sweep harness.

Each experiment evaluates a grid of operating points and emits flat,
self-describing rows (every row carries its coordinates, the seed and a hash
of the full configuration), ready to be written as CSV or JSON for external
plotting.  All grid points are computed with the exact estimator reports
except the fluctuation study and the Monte Carlo validation, which are seeded
and deterministic.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from subshot.detection import Channel
from subshot.estimators import (
    Detector,
    EstimatorReport,
    asymptotic_relative_mse_floor,
    exact_report,
    make_estimator_spec,
    snl_report,
    snl_ratio,
)
from subshot.montecarlo import (
    FluctuationConfig,
    NegativeDraws,
    PumpRedraw,
    fluctuation_study,
    mc_estimate,
)
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    Source,
    make_multiplexed,
    unreachable_field,
)

EXPERIMENTS = (
    "nr-ratio",
    "threshold-bias",
    "threshold-ratio",
    "intensity-sweep",
    "asymptotic",
    "fluctuations",
    "mc-validate",
)


class ConfigError(ValueError):
    """Configuration validation failure, naming the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _uniform_grid(n: int = 101) -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(0.0, 1.0, n))


@dataclass(frozen=True)
class SweepConfig:
    """One experiment run: grids, physics constants, seed and output knobs."""

    experiment: str
    t_grid: tuple[float, ...] = _uniform_grid()
    stage_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    mean_grid: tuple[float, ...] = ()
    a_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    mean_photons: float = 1.0
    transmission: float = 0.8
    detector_eff: float = 0.9
    optics_transmission: float = 0.9
    stage_transmission: float = 0.88
    herald_eff: float = 0.9
    nu: int = 200
    rounds: int = 50
    trials: int = 100_000
    redraw: str = "per-round"
    negatives: str = "clamp"
    seed: int = 0

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown experiment {self.experiment!r}")
        if not self.t_grid:
            raise ConfigError("t_grid", "must be non-empty")
        for t in self.t_grid:
            if not 0.0 <= t <= 1.0:
                raise ConfigError("t_grid", f"transmission {t} outside [0, 1]")
        if not self.stage_counts:
            raise ConfigError("stage_counts", "must be non-empty")
        for m in self.stage_counts:
            if m < 1:
                raise ConfigError("stage_counts", f"stage count {m} must be >= 1")
        for n in self.mean_grid:
            if not (math.isfinite(n) and n > 0):
                raise ConfigError("mean_grid", f"mean photon number {n} must be finite and > 0")
        for a in self.a_grid:
            if not 0.0 <= a <= 0.6:
                raise ConfigError("a_grid", f"fluctuation {a} outside [0, 0.6]")
        if not (math.isfinite(self.mean_photons) and self.mean_photons > 0):
            raise ConfigError("mean_photons", f"{self.mean_photons} must be finite and > 0")
        if not 0.0 <= self.transmission <= 1.0:
            raise ConfigError("transmission", "must lie in [0, 1]")
        for field in ("detector_eff", "optics_transmission", "stage_transmission", "herald_eff"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(field, "must lie in [0, 1]")
        # The rule reads only the three transmissions; stages and pump are
        # placeholders.
        unreachable = unreachable_field(
            MuxParams(
                stages=1,
                pair_mean=0.0,
                herald_eff=self.herald_eff,
                stage_transmission=self.stage_transmission,
                optics_transmission=self.optics_transmission,
            )
        )
        if unreachable is not None:
            raise ConfigError(unreachable, "must be > 0: the multiplexed source emits no photons at 0")
        if self.nu < 1:
            raise ConfigError("nu", "must be >= 1")
        if self.rounds < 2:
            raise ConfigError("rounds", "must be >= 2")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if self.redraw not in ("per-round", "per-repetition"):
            raise ConfigError("redraw", "must be 'per-round' or 'per-repetition'")
        if self.negatives not in ("clamp", "resample"):
            raise ConfigError("negatives", "must be 'clamp' or 'resample'")

    def canonical(self) -> str:
        pairs = []
        for f in sorted(fields(self), key=lambda f: f.name):
            pairs.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(pairs)

    def digest(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        # Every output row carries the digest; hash the (immutable) config once.
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SweepRow:
    """One output record; unused coordinates/outputs stay None."""

    experiment: str
    source: str
    detector: str
    stages: int | None
    t: float | None
    mean_photons: float | None
    fluctuation: float | None
    nu: int
    expectation: float | None = None
    bias: float | None = None
    variance: float | None = None
    mse: float | None = None
    relative_mse_percent: float | None = None
    ratio_to_snl: float | None = None
    asymptotic_floor_percent: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    mse_exact: float | None = None
    z_expectation: float | None = None
    z_mse: float | None = None
    seed: int = 0
    config_hash: str = ""

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in ROW_COLUMNS}


# Output column order: the field order of `SweepRow`.
ROW_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _source_label(source: Source) -> str:
    if isinstance(source, Coherent):
        return "coherent"
    if isinstance(source, Fock):
        return "fock"
    return "multiplexed"


def _stages_of(source: Source) -> int | None:
    return source.params.stages if isinstance(source, Multiplexed) else None


def _mux(cfg: SweepConfig, stages: int, mean: float) -> Multiplexed:
    return make_multiplexed(
        stages,
        mean,
        herald_eff=cfg.herald_eff,
        stage_transmission=cfg.stage_transmission,
        optics_transmission=cfg.optics_transmission,
    )


def _report_row(
    cfg: SweepConfig,
    source: Source,
    detector: Detector,
    report: EstimatorReport,
    snl: EstimatorReport,
    mean: float,
) -> SweepRow:
    return SweepRow(
        experiment=cfg.experiment,
        source=_source_label(source),
        detector=detector.value,
        stages=_stages_of(source),
        t=report.transmission,
        mean_photons=mean,
        fluctuation=None,
        nu=report.nu,
        expectation=report.expectation,
        bias=report.bias,
        variance=report.variance,
        mse=report.mse,
        relative_mse_percent=report.relative_mse_percent,
        ratio_to_snl=snl_ratio(report, snl),
        seed=cfg.seed,
        config_hash=cfg.digest(),
    )


def _ratio_sweep(cfg: SweepConfig, detector: Detector, include_fock: bool = True):
    """Exact reports over the t-grid for coherent, multiplexed and Fock
    sources, each row carrying its MSE ratio to the shot-noise reference."""
    mean = cfg.mean_photons
    sources: list[Source] = [Coherent(mean)]
    sources += [_mux(cfg, m, mean) for m in cfg.stage_counts]
    if include_fock:
        sources.append(Fock(1))
    rows = []
    for t in cfg.t_grid:
        ch = Channel(t, cfg.detector_eff)
        snl = snl_report(mean, ch, cfg.nu)
        for source in sources:
            report = exact_report(source, detector, ch, cfg.nu)
            rows.append(_report_row(cfg, source, detector, report, snl, mean))
    return rows


def _run_nr_ratio(cfg: SweepConfig):
    return _ratio_sweep(cfg, Detector.NUMBER_RESOLVING)


def _run_threshold(cfg: SweepConfig):
    """Threshold reports over the t-grid; each row carries both the bias and
    the MSE ratio, so `threshold-bias` and `threshold-ratio` share it."""
    return _ratio_sweep(cfg, Detector.THRESHOLD)


def _run_intensity_sweep(cfg: SweepConfig):
    """Ratio versus input mean photon number at fixed sample transmission;
    the multiplexed pump is re-tuned at every grid point."""
    mean_grid = cfg.mean_grid or tuple(float(x) for x in np.arange(0.05, 1.0001, 0.05))
    ch = Channel(cfg.transmission, cfg.detector_eff)
    rows = []
    for mean in mean_grid:
        snl = snl_report(mean, ch, cfg.nu)
        sources: list[Source] = [Coherent(mean)]
        sources += [_mux(cfg, m, mean) for m in cfg.stage_counts]
        for detector in (Detector.NUMBER_RESOLVING, Detector.THRESHOLD):
            for source in sources:
                report = exact_report(source, detector, ch, cfg.nu)
                rows.append(_report_row(cfg, source, detector, report, snl, mean))
    return rows


def _run_asymptotic(cfg: SweepConfig):
    """Infinite-repetition relative MSE floor of the threshold estimators."""
    mean_grid = cfg.mean_grid or (0.2, 0.5, 1.0)
    rows = []
    for mean in mean_grid:
        sources: list[Source] = [Coherent(mean)]
        sources += [_mux(cfg, m, mean) for m in cfg.stage_counts]
        for t in cfg.t_grid:
            ch = Channel(t, cfg.detector_eff)
            for source in sources:
                floor = asymptotic_relative_mse_floor(source, ch)
                rows.append(
                    SweepRow(
                        experiment=cfg.experiment,
                        source=_source_label(source),
                        detector=Detector.THRESHOLD.value,
                        stages=_stages_of(source),
                        t=t,
                        mean_photons=mean,
                        fluctuation=None,
                        nu=cfg.nu,
                        asymptotic_floor_percent=floor,
                        seed=cfg.seed,
                        config_hash=cfg.digest(),
                    )
                )
    return rows


def _fluctuation_config(cfg: SweepConfig) -> FluctuationConfig:
    return FluctuationConfig(
        a_grid=cfg.a_grid,
        rounds=cfg.rounds,
        nu=cfg.nu,
        redraw=PumpRedraw(cfg.redraw),
        negatives=NegativeDraws(cfg.negatives),
    )


def _run_fluctuations(cfg: SweepConfig):
    """Seeded pump-fluctuation study over the a-grid."""
    mc_cfg = _fluctuation_config(cfg)
    ch = Channel(cfg.transmission, cfg.detector_eff)
    sources: list[Source] = [Coherent(cfg.mean_photons)]
    sources += [_mux(cfg, m, cfg.mean_photons) for m in cfg.stage_counts]
    rows = []
    for detector in (Detector.NUMBER_RESOLVING, Detector.THRESHOLD):
        for source in sources:
            summaries = fluctuation_study(mc_cfg, source, detector, ch, cfg.seed)
            for summary in summaries:
                rows.append(
                    SweepRow(
                        experiment=cfg.experiment,
                        source=_source_label(source),
                        detector=detector.value,
                        stages=_stages_of(source),
                        t=cfg.transmission,
                        mean_photons=cfg.mean_photons,
                        fluctuation=summary.fluctuation,
                        nu=cfg.nu,
                        mse=summary.mean_mse,
                        ci_low=summary.ci_low,
                        ci_high=summary.ci_high,
                        seed=cfg.seed,
                        config_hash=cfg.digest(),
                    )
                )
    return rows


def _run_mc_validate(cfg: SweepConfig):
    """Monte Carlo versus exact reports for a canned configuration set
    spanning both detectors and all three sources."""
    ch = Channel(cfg.transmission, cfg.detector_eff)
    mean = cfg.mean_photons
    canned: list[tuple[Source, Detector]] = [
        (Coherent(mean), Detector.NUMBER_RESOLVING),
        (Coherent(mean), Detector.THRESHOLD),
        (Fock(1), Detector.NUMBER_RESOLVING),
        (Fock(1), Detector.THRESHOLD),
        (_mux(cfg, 2, mean), Detector.NUMBER_RESOLVING),
        (_mux(cfg, 5, mean), Detector.THRESHOLD),
    ]
    rows = []
    for index, (source, detector) in enumerate(canned):
        exact = exact_report(source, detector, ch, cfg.nu)
        spec = make_estimator_spec(source, detector, cfg.detector_eff, cfg.nu)
        mc = mc_estimate(spec, ch, cfg.trials, seed=cfg.seed + index)
        z_e = (
            (mc.expectation - exact.expectation) / mc.expectation_se
            if mc.expectation_se > 0
            else 0.0
        )
        z_m = (mc.mse - exact.mse) / mc.mse_se if mc.mse_se > 0 else 0.0
        rows.append(
            SweepRow(
                experiment=cfg.experiment,
                source=_source_label(source),
                detector=detector.value,
                stages=_stages_of(source),
                t=cfg.transmission,
                mean_photons=mean,
                fluctuation=None,
                nu=cfg.nu,
                expectation=mc.expectation,
                mse=mc.mse,
                mse_exact=exact.mse,
                z_expectation=z_e,
                z_mse=z_m,
                seed=cfg.seed + index,
                config_hash=cfg.digest(),
            )
        )
    return rows


_RUNNERS = {
    "nr-ratio": _run_nr_ratio,
    "threshold-bias": _run_threshold,
    "threshold-ratio": _run_threshold,
    "intensity-sweep": _run_intensity_sweep,
    "asymptotic": _run_asymptotic,
    "fluctuations": _run_fluctuations,
    "mc-validate": _run_mc_validate,
}


def run_experiment(cfg: SweepConfig) -> list[SweepRow]:
    """Evaluate the full grid of `cfg` in deterministic grid order."""
    cfg.validate()
    return _RUNNERS[cfg.experiment](cfg)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    """Locale-free CSV with a header row; floats keep full precision."""
    lines = [",".join(ROW_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row.as_dict().values()))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[SweepRow]) -> str:
    import json

    return json.dumps([row.as_dict() for row in rows], indent=2) + "\n"
