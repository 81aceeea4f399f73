"""Configuration-driven sweep harness.

Each experiment evaluates a grid of operating points and emits flat,
self-describing rows (every row carries its coordinates, the seed and a hash
of the full configuration), ready to be written as CSV or JSON for external
plotting.  All grid points are computed with the exact estimator reports
except the fluctuation study and the Monte Carlo validation, which are seeded
and deterministic.  `_rows` is the only place rows are built, all rows of a
run at once from its report columns into a `RowTable`, and `_sources` the
only place the sources are made: a coherent beam whose mean, and
multiplexed sources whose pumps, are a float or follow a whole mean grid,
every pump of a run tuned in one `tune_pair_mean` call.  The exact sweeps
(`_exact_rows`, `_run_asymptotic`) make one report per detector for the
coherent source, one for all the run's networks, on the leading network axis
of the closed forms, and one for the Fock state; the coherent
number-resolving report, where a run makes one, is also its shot-noise
reference.  `_grid_rows` passes a report column whose bits equal those of
the column before it as that very list (`nr-ratio`'s `mse` column is its
`variance` column), which the writers spell once; it matches by bits, never
by `==`, since 0.0 == -0.0 and 1 == 1.0 spell apart.  The row format and
its CSV and JSON writers live in `subshot.output`.
`SweepConfig.validate` checks that every number is a Python int or float
(an int for a count) and every grid a sequence, checks the run-level rules,
and builds the channels, the fluctuation config and the untuned networks
(`Multiplexed` at pump 0) the run builds, whose constructors own the ranges
of their fields; one call of the rule the pump tuning applies
(`check_reach`), without tuning a pump, checks that the networks reach the
means the run tunes (`_tuned_means`) within the run's pair limits.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, fields

import numpy as np

from subshot.detection import Channel
from subshot.estimators import (
    Detector,
    asymptotic_relative_mse_floor,
    exact_report,
    snl_report,
    snl_ratio,
)
from subshot.montecarlo import (
    MAX_TRIALS,
    PUMP_Z_MAX,
    FluctuationConfig,
    fluctuation_study,
    mc_estimate,
)
from subshot.output import ROW_COLUMNS, Indexed, RowTable
# Bound here too: bench/make_reference.py imports it from this module.
from subshot.output import rows_to_csv  # noqa: F401
from subshot.sources import (
    DEFAULT_HERALD_EFF,
    DEFAULT_OPTICS_TRANSMISSION,
    DEFAULT_STAGE_TRANSMISSION,
    Coherent,
    ConfigError,
    Fock,
    Multiplexed,
    Source,
    check_count,
    check_reach,
    make_multiplexed,
)

# Largest accepted mean photon number per repetition.  The sources studied
# deliver about one photon.  The Monte Carlo count rows grow with the mean:
# at this cap the default fluctuations run takes ~0.5 s and ~40 MB, at 1e5
# it takes ~2.5 s and ~67 MB (one process on 2 vCPUs).  Per repetition it
# takes ~0.9 s and ~48 MB at this cap.  The exact reports square the
# reference mean, which overflows a float beyond ~1e154.
MAX_MEAN = 1e4

# Smallest accepted detector efficiency times mean photon number.  The exact
# reports divide by nu * reference**2, so `estimators.reference_mean` rejects
# a reference below ~1e-154; this floor leaves room above that library floor
# for threshold references, which can be smaller than the detected mean.
MIN_REFERENCE = 1e-100

# Smallest threshold reference (the click probability with the sample
# removed) that the pair-mean rule of `validate` leaves a multiplexed source.
# With N its mean and b its pairs per window at the sample, a heralded window
# holds at most b / Q + 1 pairs on average and clicks with probability at
# least max(eta Q, 1 - e^{-b eta}), so the reference is at least
# min(0.316 eta N, 0.632 N / (b + 1)).  The first term stays above
# MIN_REFERENCE / 4, and b <= N / (2 * this) keeps the second above this,
# a factor 6.7 above the 1.5e-154 whose square `estimators.reference_mean`
# still takes.  The limit is b ~ 5e152 at mean 1: `threshold-ratio --m 1`
# runs at herald 1e-300 (b = 6.3e149) and is refused at 1e-306.
MIN_THRESHOLD_REFERENCE = 1e-153

# Largest pairs per window at the sample, at the largest pump of the
# pump-node layout, of a multiplexed source whose count rows a Monte Carlo
# run samples, keyed by experiment and the fluctuation study by its redraw
# mode.  A weak herald needs rare bursts of many pairs, and the count rows
# span the burst.  At each limit, with the other fields at their defaults
# (one process on 2 vCPUs): `fluctuations` takes 3.4 s and 54 MB (herald
# 8.4e-13) per round, and 1.1 s and 52 MB (herald 8.4e-11) per repetition.
# `mc-validate` builds no count rows: its totals come from the generating
# function (`montecarlo._total_count_pmf`), whose window spans the total's
# standard deviation.  At its limit it takes 0.26 s and 56 MB (herald
# 7e-11), and past it, in-process, 0.29 s and 112 MB at herald 1e-11 and
# 0.52 s and 189 MB at 1e-12.  Above the default nu its limit shrinks like
# 1/sqrt(nu), but never below the 2 * mean pairs of a strong herald; at
# that limit it takes 0.23, 0.30, 0.25, 0.43 and 0.75 s at nu = 1e3, 1e4,
# 1e5, 1e6 and 1e8 (190 MB at 1e8).  Its values date from the convolution
# power these totals replaced, which took 25 s at herald 7e-11; loosening
# them is a change of its own.
MAX_SAMPLED_PAIRS = {"mc-validate": 5e4, "per-round": 1.5e6, "per-repetition": 1.5e5}

# Caps on what a Monte Carlo run's cost grows with, each measured fresh
# under `python -W error` on 2 vCPUs, the other fields at their defaults.
# A fluctuation round holds its nu sorted uniforms and their int64 search
# results (`montecarlo._round_streams`, `_round_totals`): 2 rounds at this
# nu take 0.8 s and 189 MB, where nu = 2e9 would hold 16 GB of uniforms.
MAX_STUDY_NU = 10**7

# A fluctuation study draws and sorts rounds x nu uniforms: 100 rounds at
# nu = 1e7 take 13.5 s and 189 MB at this cap, 50 rounds at nu = 1e6 0.9 s.
MAX_STUDY_DRAWS = 10**9

# A fluctuation study holds its round totals, squared errors and their sort
# (`montecarlo.fluctuation_study`): three floats per (pair, fraction, round),
# its count here.  At this cap, 2.5e6 rounds of 4 pairs (`--m 1`) at one
# fraction take 30 s and 342 MB; 1e5 rounds of the command line's default 6
# pairs x 7 fractions take 4.6 s and 168 MB, and 1e8 rounds of them would
# hold 34 GB in each of the three.
MAX_STUDY_CELLS = 10**7

# `mc-validate` forms the law of a total of variance up to about
# nu x max(1, mean) times the pairs per window of a burst, on a window that
# spans its standard deviation (`montecarlo._total_count_pmf`).  At this
# cap it takes 0.33 s and 56 MB at nu = 1e8, 0.29 s at nu = 1e6 and mean
# 100, and 0.36 s at nu = 1e4 and mean 1e4.  The pair limit's 2 * mean
# floor lets a weak herald spread the total further: 5.1 s and 1.2 GB at
# nu = 1e4, mean 1e4 and herald 6.1e-6, a window of 2**24 counts.  The
# coherent pair has no pair limit, so nothing else bounds it.
MAX_VALIDATE_SPREAD = 1e8

# Largest networks x transmissions x means of a run, the entries of each
# array its exact reports evaluate on a leading network axis (the networks'
# reach, in `validate`, on networks x means).  At this cap, fresh under
# `python -W error` on 2 vCPUs: `threshold-ratio` over 1e5 transmissions at
# the default six networks takes 4.2-5.3 s and 329 MB, `intensity-sweep`
# over 1e5 means 7.9 s and 531 MB, and `asymptotic` over 1e5 transmissions
# 2.1 s and 164 MB at two networks x three means (3.2 s and 220 MB at one
# network x six means).  The arrays grow with the product: 1e4 networks x
# 1e5 transmissions would ask for 8 GB each.
MAX_GRID_CELLS = 6 * 10**5

# The experiments that report with threshold detectors only.
_THRESHOLD_ONLY = ("threshold-bias", "threshold-ratio", "asymptotic")

# The experiments whose reports span the transmission grid.
_T_GRID_SWEEPS = ("nr-ratio", "threshold-bias", "threshold-ratio", "asymptotic")

# Stage counts of the canned mc-validate configurations.
_MC_VALIDATE_STAGES = (2, 5)

# Mean grids of the experiments that sweep the mean, when none is given.
_DEFAULT_MEAN_GRIDS = {
    "intensity-sweep": tuple(float(x) for x in np.arange(0.05, 1.0001, 0.05)),
    "asymptotic": (0.2, 0.5, 1.0),
}


# Python number type of each numeric `SweepConfig` field annotation.
_NUMBER_KINDS = {"float": float, "int": int, "tuple[float, ...]": float, "tuple[int, ...]": int}


def _plain_number(kind: type, value):
    """`value` as the Python `kind` (int or float) where that keeps its
    value, else as given."""
    try:
        plain = kind(value)
    except (TypeError, ValueError, OverflowError):  # not a number, or int() of a NaN
        return value
    return plain if plain == value else value


@dataclass(frozen=True)
class SweepConfig:
    """One experiment run: grids, physics constants, seed and output knobs."""

    experiment: str
    t_grid: tuple[float, ...] = tuple(float(t) for t in np.linspace(0.0, 1.0, 101))
    stage_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    mean_grid: tuple[float, ...] = ()
    a_grid: tuple[float, ...] = FluctuationConfig.a_grid
    mean_photons: float = 1.0
    transmission: float = 0.8
    detector_eff: float = 0.9
    optics_transmission: float = DEFAULT_OPTICS_TRANSMISSION
    stage_transmission: float = DEFAULT_STAGE_TRANSMISSION
    herald_eff: float = DEFAULT_HERALD_EFF
    nu: int = 200
    rounds: int = FluctuationConfig.rounds
    trials: int = 100_000
    redraw: str = FluctuationConfig.redraw
    negatives: str = FluctuationConfig.negatives
    seed: int = 0

    def __post_init__(self):
        # The one place numbers are normalized, so a config built from numpy
        # scalars, or with a list or an array for a tuple field, writes the
        # same CSV cells and digest as the literal one.  An iterable for a
        # tuple field becomes a tuple; a value the conversion would change
        # (a fractional or NaN count, a string, a scalar for a tuple field)
        # stays as given, for `validate` to name.
        for f in fields(self):
            kind = _NUMBER_KINDS.get(f.type)
            if kind is not None:
                value = getattr(self, f.name)
                if not f.type.startswith("tuple"):
                    value = _plain_number(kind, value)
                elif np.iterable(value) and not isinstance(value, str):
                    value = tuple(_plain_number(kind, v) for v in value)
                object.__setattr__(self, f.name, value)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown experiment {self.experiment!r}")
        # `__post_init__` made every integer-valued number an int, every other
        # real one a float and every iterable for a tuple field a tuple.
        for f in fields(self):
            kind, value = _NUMBER_KINDS.get(f.type), getattr(self, f.name)
            entries = value if f.type.startswith("tuple") else (value,)
            if kind and not (isinstance(entries, tuple)
                             and all(isinstance(v, (kind, int)) for v in entries)):
                raise ConfigError(f.name, f"must be of type {f.type}, got {value!r}")
        for field in ("t_grid", "stage_counts"):
            if not getattr(self, field):
                raise ConfigError(field, "must be non-empty")
        for n in self.mean_grid:
            if not 0 < n <= MAX_MEAN:
                raise ConfigError("mean_grid", f"mean photon number {n} outside (0, {MAX_MEAN:g}]")
        if not 0 < self.mean_photons <= MAX_MEAN:
            raise ConfigError("mean_photons", f"{self.mean_photons} outside (0, {MAX_MEAN:g}]")
        transmissions = len(self.t_grid) if self.experiment in _T_GRID_SWEEPS else 1
        grid = transmissions * len(_tuned_means(self))
        if len(self.stage_counts) * grid > MAX_GRID_CELLS:
            # The stage list is what grows where the grid alone fits.
            field = ("stage_counts" if grid <= MAX_GRID_CELLS
                     else "t_grid" if transmissions > 1 else "mean_grid")
            raise ConfigError(field, f"{len(self.stage_counts)} networks x {grid} grid points "
                                     f"must be at most {MAX_GRID_CELLS:g}")
        check_count("trials", self.trials, 1, MAX_TRIALS)
        check_count("seed", self.seed, 0)
        # Check what the run builds: the grid channel's transmission and the
        # networks' stages are this config's t_grid and stage_counts.
        calibration = (self.herald_eff, self.stage_transmission, self.optics_transmission)
        try:
            Channel(np.array(self.t_grid), self.detector_eff)
            networks = [Multiplexed(m, 0.0, *calibration) for m in self.stage_counts]
        except ConfigError as err:
            field = {"transmission": "t_grid", "stages": "stage_counts"}.get(err.field, err.field)
            raise ConfigError(field, err.reason) from None
        Channel(self.transmission, self.detector_eff)
        FluctuationConfig(self.a_grid, self.rounds, self.nu, self.redraw, self.negatives)
        self._validate_sampling()
        self._validate_reference()
        if self.experiment == "mc-validate":
            networks = [Multiplexed(m, 0.0, *calibration) for m in _MC_VALIDATE_STAGES]
        self._validate_pairs(networks)

    def _validate_sampling(self) -> None:
        """A Monte Carlo run must stay within the caps on what its cost
        grows with: `MAX_STUDY_NU`, `MAX_STUDY_DRAWS` and `MAX_STUDY_CELLS`
        for a fluctuation study, `MAX_VALIDATE_SPREAD` for `mc-validate`."""
        nu, rounds, mean = self.nu, self.rounds, self.mean_photons
        if self.experiment == "mc-validate" and nu * max(1, mean) > MAX_VALIDATE_SPREAD:
            raise ConfigError("nu", f"{nu} repetitions at mean {mean} give total count laws "
                                    f"too wide to form in seconds: nu x max(1, mean) "
                                    f"must be at most {MAX_VALIDATE_SPREAD:g}")
        if self.experiment != "fluctuations":
            return
        if nu > MAX_STUDY_NU:
            raise ConfigError("nu", f"{nu} repetitions per round hold more uniforms than the "
                                    f"{MAX_STUDY_NU:g} a round holds in bounded memory")
        if rounds * nu > MAX_STUDY_DRAWS:
            raise ConfigError("rounds", f"{rounds} rounds of nu = {nu} draw more uniforms than "
                                        f"the {MAX_STUDY_DRAWS:g} a study draws in seconds")
        # The pairs: the coherent source and each network, with both detectors.
        cells = rounds * len(self.a_grid) * 2 * (1 + len(self.stage_counts))
        if cells > MAX_STUDY_CELLS:
            raise ConfigError("rounds", f"{rounds} rounds of every (pair, fraction) make {cells} "
                                        f"round totals, more than the {MAX_STUDY_CELLS:g} a "
                                        f"study holds in bounded memory")

    def _validate_reference(self) -> None:
        """The detector efficiency times the smallest mean the run tunes must
        reach MIN_REFERENCE; name the smaller factor, as `check_reach` names
        the weakest loss."""
        mean = min(_tuned_means(self))
        if self.detector_eff * mean < MIN_REFERENCE:
            field = "mean_grid" if self.experiment in _DEFAULT_MEAN_GRIDS else "mean_photons"
            raise ConfigError(
                "detector_eff" if self.detector_eff <= mean else field,
                f"detector efficiency {self.detector_eff} times mean {mean} is below "
                f"{MIN_REFERENCE:g}: the estimator reference would vanish",
            )

    def _validate_pairs(self, networks) -> None:
        """The `networks` must reach the means the run tunes with pairs per
        window at the sample that the run's closed forms and count rows take
        (`sources.check_reach`), at the largest pump the run evaluates: the
        top pump node of a fluctuation study, else the tuned pump."""
        top = 1.0 + PUMP_Z_MAX * max(self.a_grid) if self.experiment == "fluctuations" else 1.0
        means = np.array(_tuned_means(self))
        limits = {}
        if self.experiment != "nr-ratio":  # forms a threshold reference
            limits[f"below which the threshold reference stays above "
                   f"{MIN_THRESHOLD_REFERENCE:g}"] = means / (2 * MIN_THRESHOLD_REFERENCE)
        if self.experiment not in _THRESHOLD_ONLY:
            # The second factorial moment forms 2**stages (pump Q)^2 at most;
            # 1e308 keeps it finite.  `nr-ratio --m 1` runs at herald 1e-300
            # (6.3e149 pairs) and 1e-308 (6.3e153), and is refused at 1e-320.
            windows = np.array([2.0**network.stages for network in networks])[:, None]
            limits["below which its number-resolving second moment stays finite"] = (
                1e154 / np.sqrt(windows) / top)
        cap = MAX_SAMPLED_PAIRS.get(self.redraw if self.experiment == "fluctuations"
                                    else self.experiment)
        if cap is not None:
            limits[f"below which the count laws that {self.experiment} samples stay short "
                   f"enough to build"] = cap / top
        if self.experiment == "mc-validate" and self.nu > SweepConfig.nu:  # MAX_SAMPLED_PAIRS
            limits[f"below which the total count over nu = {self.nu} repetitions forms in "
                   f"seconds"] = np.maximum(cap * (SweepConfig.nu / self.nu) ** 0.5, 2 * means)
        check_reach(networks, means, limits)

    def canonical(self) -> str:
        pairs = []
        for f in sorted(fields(self), key=lambda f: f.name):
            pairs.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(pairs)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


# Report fields copied into the output column of the same name.
_REPORT_COLUMNS = ("expectation", "bias", "variance", "mse", "relative_mse_percent")


def _rows(cfg: SweepConfig, pairs, index: list[int], t, mean, fluctuation=None, seed=None,
          **outputs) -> RowTable:
    """The one place rows are built, all rows of a run at once, as the
    columns of a `RowTable`.  Row i is labelled by the (source, detector)
    pair `pairs[index[i]]`.  `t`, `mean`, `fluctuation`, `seed` (default
    `cfg.seed`) and each output column hold a list with one cell per row, an
    `Indexed` column, or one cell that every row repeats; a column not given
    stays None."""
    labels = [
        (type(source).__name__.lower(),  # coherent, fock or multiplexed
         detector.value,
         source.stages if isinstance(source, Multiplexed) else None)
        for source, detector in pairs
    ]
    source, detector, stages = (Indexed(list(cells), index) for cells in zip(*labels))
    given = {
        **outputs,
        "experiment": cfg.experiment,
        "source": source,
        "detector": detector,
        "stages": stages,
        "t": t,
        "mean_photons": mean,
        "fluctuation": fluctuation,
        "nu": cfg.nu,
        "seed": cfg.seed if seed is None else seed,
        "config_hash": cfg.digest(),
    }
    return RowTable(len(index), [given.get(name) for name in ROW_COLUMNS])


def _grid_rows(cfg: SweepConfig, pairs, channel: Channel, mean, **outputs) -> RowTable:
    """Rows over the (t, mean) grid, then over `pairs`: the channel's
    transmission and `mean` are each a float or a grid, and `outputs[name]`
    holds one report field per pair over their broadcast grid.  A column
    whose bits equal those of the column before it is passed as that very
    list, which the writers spell once.  (Holding every earlier column's
    bits instead would hold one more copy of the report cells.)"""
    ts, means = np.broadcast_arrays(channel.transmission, mean)
    width = len(pairs)
    point = np.repeat(np.arange(ts.size), width).tolist()
    cells, last = {}, (None, None)  # the bits and the cells of the column before
    for name, fields in outputs.items():
        column = np.stack(fields, axis=-1).ravel()
        # By bits, not by ==: 0.0 and -0.0, or 1 and 1.0, are spelled apart.
        bits = (column.dtype.str, column.tobytes())
        cells[name] = last[1] if bits == last[0] else column.tolist()
        last = bits, cells[name]
    return _rows(
        cfg, pairs, list(range(width)) * ts.size,
        Indexed(ts.ravel().tolist(), point), Indexed(means.ravel().tolist(), point), **cells,
    )


def _tuned_means(cfg: SweepConfig) -> tuple[float, ...]:
    """The means a run of `cfg` tunes its sources to: the mean grid (or its
    default) of an experiment that sweeps the mean, else `mean_photons`."""
    if cfg.experiment in _DEFAULT_MEAN_GRIDS:
        return cfg.mean_grid or _DEFAULT_MEAN_GRIDS[cfg.experiment]
    return (cfg.mean_photons,)


def _sources(cfg: SweepConfig, mean, stages=None) -> list[Source]:
    """The coherent source and one multiplexed source per stage count of
    `stages` (default `cfg.stage_counts`), each delivering `mean` photons to
    the sample: a float, or an array of means that the sources' pumps then
    follow.  Every multiplexed pump of the run is tuned in one
    `tune_pair_mean` call."""
    calibration = (cfg.herald_eff, cfg.stage_transmission, cfg.optics_transmission)
    return [Coherent(mean)] + make_multiplexed(stages or cfg.stage_counts, mean, *calibration)


def _exact_rows(cfg: SweepConfig, groups: list, detectors, channel: Channel, mean):
    """Exact reports for each detector and source group, each row carrying
    its MSE ratio to the shot-noise reference at `mean` photons.

    A group is one source or the list of the run's multiplexed networks,
    which one report covers on its leading network axis.  The channel's
    transmission is a float or the whole t-grid as an array, and `mean` a
    float or the whole mean grid, which the sources' pumps follow; either
    way there is one report per detector and group, and the rows run over
    the grid, then detector, then source.  The shot-noise reference is the
    coherent number-resolving report where the run makes one."""
    reports = [(group, detector, exact_report(group, detector, channel, cfg.nu))
               for detector in detectors for group in groups]
    snl = next((report for group, detector, report in reports
                if isinstance(group, Coherent) and detector is Detector.NUMBER_RESOLVING), None)
    if snl is None:
        snl = snl_report(mean, channel, cfg.nu)
    pairs, outputs = [], {name: [] for name in _REPORT_COLUMNS + ("ratio_to_snl",)}
    for group, detector, report in reports:
        batch = isinstance(group, list)  # a field per network on its leading axis
        pairs += [(source, detector) for source in (group if batch else [group])]
        cells = {name: getattr(report, name) for name in _REPORT_COLUMNS}
        cells["ratio_to_snl"] = snl_ratio(report, snl)
        for name, field in cells.items():
            outputs[name].extend(field if batch else [field])
    return _grid_rows(cfg, pairs, channel, mean, **outputs)


def _ratio_sweep(cfg: SweepConfig, detector: Detector):
    """Exact reports over the t-grid for coherent, multiplexed and Fock
    sources.  Threshold rows carry both the bias and the MSE ratio, so
    `threshold-bias` and `threshold-ratio` share this sweep."""
    (mean,) = _tuned_means(cfg)
    coherent, *networks = _sources(cfg, mean)
    channel = Channel(np.array(cfg.t_grid), cfg.detector_eff)
    return _exact_rows(cfg, [coherent, networks, Fock(1)], (detector,), channel, mean)


def _run_intensity_sweep(cfg: SweepConfig):
    """Ratio versus input mean photon number at fixed sample transmission,
    one report per detector for the coherent source and one for all the
    networks, each over the whole mean grid."""
    means = np.array(_tuned_means(cfg))
    ch = Channel(cfg.transmission, cfg.detector_eff)
    coherent, *networks = _sources(cfg, means)
    return _exact_rows(cfg, [coherent, networks], Detector, ch, means)


def _run_asymptotic(cfg: SweepConfig):
    """Infinite-repetition relative MSE floor of the threshold estimators,
    one closed-form call over the whole (mean x t) grid for the coherent
    source and one for all the networks."""
    ch = Channel(np.array(cfg.t_grid), cfg.detector_eff)
    means = np.array(_tuned_means(cfg))[:, None]
    coherent, *networks = sources = _sources(cfg, means)
    floors = [asymptotic_relative_mse_floor(coherent, ch),
              *asymptotic_relative_mse_floor(networks, ch)]
    pairs = [(source, Detector.THRESHOLD) for source in sources]
    return _grid_rows(cfg, pairs, ch, means, asymptotic_floor_percent=floors)


def _z_score(sampled: float, exact: float, se: float) -> float:
    """Deviation of a sampled moment from its exact value in standard errors,
    0 when the samples do not spread."""
    return (sampled - exact) / se if se > 0 else 0.0


def _columns(records: list) -> dict[str, list]:
    """Result records (NamedTuples of one type) transposed: one list of
    cells per field name."""
    return dict(zip(records[0]._fields, map(list, zip(*records))))


def _run_fluctuations(cfg: SweepConfig):
    """Seeded pump-fluctuation study over the a-grid, each row with the
    exact MSE it samples and its deviation in standard errors.  The deviation
    is skewed under per-round pump noise, so it is recorded, not bounded."""
    mc_cfg = FluctuationConfig(cfg.a_grid, cfg.rounds, cfg.nu, cfg.redraw, cfg.negatives)
    t, (mean,) = cfg.transmission, _tuned_means(cfg)
    sources = _sources(cfg, mean)
    pairs = [(source, detector) for detector in Detector for source in sources]
    studies = fluctuation_study(mc_cfg, pairs, Channel(t, cfg.detector_eff), cfg.seed)
    s = _columns([summary for pair_summaries in studies for summary in pair_summaries])
    return _rows(
        cfg, pairs, [i for i, pair_summaries in enumerate(studies) for _ in pair_summaries],
        t, mean, fluctuation=s["fluctuation"], mse=s["mean_mse"], ci_low=s["ci_low"],
        ci_high=s["ci_high"], mse_exact=s["mse_exact"],
        z_mse=list(map(_z_score, s["mean_mse"], s["mse_exact"], s["mse_se"])),
    )


def _run_mc_validate(cfg: SweepConfig):
    """Monte Carlo versus exact reports for a canned configuration set
    spanning both detectors and all three sources; configuration i is
    sampled with seed + i."""
    t, (mean,) = cfg.transmission, _tuned_means(cfg)
    ch = Channel(t, cfg.detector_eff)
    coherent, mux2, mux5 = _sources(cfg, mean, _MC_VALIDATE_STAGES)
    canned: list[tuple[Source, Detector]] = [
        (coherent, Detector.NUMBER_RESOLVING),
        (coherent, Detector.THRESHOLD),
        (Fock(1), Detector.NUMBER_RESOLVING),
        (Fock(1), Detector.THRESHOLD),
        (mux2, Detector.NUMBER_RESOLVING),
        (mux5, Detector.THRESHOLD),
    ]
    index = list(range(len(canned)))
    seeds = [cfg.seed + i for i in index]
    exact = _columns([exact_report(source, detector, ch, cfg.nu) for source, detector in canned])
    mc = _columns([mc_estimate(source, detector, ch, cfg.nu, cfg.trials, seed=seed)
                   for (source, detector), seed in zip(canned, seeds)])
    return _rows(
        cfg, canned, index, t, mean, seed=seeds, expectation=mc["expectation"], mse=mc["mse"],
        mse_exact=exact["mse"],
        z_expectation=list(map(_z_score, mc["expectation"], exact["expectation"],
                               mc["expectation_se"])),
        z_mse=list(map(_z_score, mc["mse"], exact["mse"], mc["mse_se"])),
    )


_RUNNERS = {
    "nr-ratio": functools.partial(_ratio_sweep, detector=Detector.NUMBER_RESOLVING),
    "threshold-bias": functools.partial(_ratio_sweep, detector=Detector.THRESHOLD),
    "threshold-ratio": functools.partial(_ratio_sweep, detector=Detector.THRESHOLD),
    "intensity-sweep": _run_intensity_sweep,
    "asymptotic": _run_asymptotic,
    "fluctuations": _run_fluctuations,
    "mc-validate": _run_mc_validate,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: SweepConfig) -> RowTable:
    """Evaluate the full grid of `cfg` in deterministic grid order."""
    cfg.validate()
    return _RUNNERS[cfg.experiment](cfg)
