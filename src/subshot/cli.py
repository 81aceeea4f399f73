"""Command line front end.

One subcommand per experiment plus `show-config`.  Settings come from three
layers, later ones winning: built-in defaults, an INI config file (sections
`[defaults]` then `[<experiment>]`, keys named like the long flags, its path
also from $SUBSHOT_CONFIG), and the command line flags; `resolve_config`
merges them and builds the run's `SweepConfig` once.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

from subshot.experiments import EXPERIMENTS, ConfigError, SweepConfig, run_experiment
from subshot.output import text_pieces

CONFIG_ENV_VAR = "SUBSHOT_CONFIG"

# Experiment-specific defaults layered over the SweepConfig ones.
PER_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "asymptotic": {"stage_counts": (3,)},
    "fluctuations": {"mean_photons": 0.5, "stage_counts": (3, 5)},
}


# Largest number of points a grid flag or config key gives.  A run's rows,
# time and memory grow with its grid points: at 1e5 points, fresh under
# `python -W error` on 2 vCPUs, `threshold-ratio --t-grid` takes 4.2 s and
# 329 MB and writes 160 MB of CSV, and `intensity-sweep --mean-grid` 7.9 s
# and 531 MB (1e4 points: 0.6 s and 63 MB).  `--t-grid 0:1:1000000000000`
# asked `np.linspace` for 8 TB.
MAX_GRID_POINTS = 100_000


def parse_float_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:num' for a uniform grid or 'a,b,c' literals,
    at most `MAX_GRID_POINTS` points, checked before any is built."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:num")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        if not 1 <= num <= MAX_GRID_POINTS:
            raise ValueError(f"grid size must lie in [1, {MAX_GRID_POINTS}], got {num}")
        return tuple(float(x) for x in np.linspace(start, stop, num))
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if len(tokens) > MAX_GRID_POINTS:
        raise ValueError(f"a grid holds at most {MAX_GRID_POINTS} points, got {len(tokens)}")
    return tuple(map(float, tokens))


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# flag/config key -> (SweepConfig field, parser)
_KEY_MAP = {
    "t-grid": ("t_grid", parse_float_grid),
    "m": ("stage_counts", parse_int_list),
    "mean-n": ("mean_photons", float),
    "mean-grid": ("mean_grid", parse_float_grid),
    "a-grid": ("a_grid", parse_float_grid),
    "t": ("transmission", float),
    "nu": ("nu", int),
    "eta": ("detector_eff", float),
    "eta-stage": ("stage_transmission", float),
    "eta-herald": ("herald_eff", float),
    "optics": ("optics_transmission", float),
    "rounds": ("rounds", int),
    "trials": ("trials", int),
    "redraw": ("redraw", str),
    "negatives": ("negatives", str),
    "seed": ("seed", int),
}


def _apply_keys(items: dict[str, str], origin: str) -> dict:
    """The `SweepConfig` fields that `items`, keyed like the long flags, set."""
    updates = {}
    for key, raw in items.items():
        if key not in _KEY_MAP:
            raise ConfigError(key, f"unknown key in {origin}")
        field, parser = _KEY_MAP[key]
        try:
            updates[field] = parser(raw)
        except (TypeError, ValueError) as err:
            raise ConfigError(field, f"invalid value {raw!r} for {key} in {origin}: {err}") from err
    return updates


def load_config_file(path: str, experiment: str) -> dict:
    """The fields that the `[defaults]` section, then the `[<experiment>]`
    section of the INI file at `path` set.  `configparser` is imported here,
    so a run without a config file does not load it."""
    import configparser

    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError("config", f"cannot read config file {path!r}")
    updates = {}
    for section in ("defaults", experiment):
        if parser.has_section(section):
            updates.update(_apply_keys(dict(parser.items(section)), f"{path} [{section}]"))
    return updates


def resolve_config(experiment: str, args: argparse.Namespace) -> SweepConfig:
    """The run's config, built once from its layers merged in order."""
    updates = dict(PER_EXPERIMENT_DEFAULTS.get(experiment, {}))
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        updates.update(load_config_file(config_path, experiment))
    flags = {key: str(value) for key in _KEY_MAP
             if (value := getattr(args, key.replace("-", "_"), None)) is not None}
    updates.update(_apply_keys(flags, "command line"))
    return SweepConfig(experiment=experiment, **updates)


# The help line of each experiment's subcommand.
EXPERIMENT_HELP = {
    "nr-ratio": "MSE ratios vs the shot-noise reference, number-resolving detectors",
    "threshold-bias": "estimator bias across the transmission grid, threshold detectors",
    "threshold-ratio": "MSE ratios vs the shot-noise reference, threshold detectors",
    "intensity-sweep": "MSE ratios vs input mean photon number at fixed transmission",
    "asymptotic": "infinite-repetition relative MSE floor of threshold estimators",
    "fluctuations": "MSE vs Gaussian pump-fluctuation size, with 68%% bands",
    "mc-validate": "Monte Carlo cross-check of the exact estimator reports",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on first use.  The
    flags every subcommand takes are added once, to a parent parser that
    each subcommand's parser copies them from."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file (or set $SUBSHOT_CONFIG)")
    common.add_argument("--out", help="output path (default: <experiment>.<format>)")
    common.add_argument(
        "--format", choices=("csv", "json", "both"), default="csv", help="output format"
    )
    for key in _KEY_MAP:
        common.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None)
    parser = argparse.ArgumentParser(
        prog="subshot",
        description="Sub-shot-noise transmission measurement sweeps",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        subparsers.add_parser(name, help=EXPERIMENT_HELP[name], parents=[common])
    show = subparsers.add_parser(
        "show-config", help="print the resolved configuration", parents=[common]
    )
    show.add_argument("experiment", nargs="?", choices=EXPERIMENTS)
    return parser


def _show_config(args: argparse.Namespace) -> int:
    """Print each resolved config as the INI section that `load_config_file`
    reads back to it: every `_KEY_MAP` key, a tuple comma-joined and any
    other value spelled by `str` (a float's shortest round-trip text)."""
    names = [args.experiment] if args.experiment else list(EXPERIMENTS)
    configs = [resolve_config(name, args) for name in names]
    for cfg in configs:
        cfg.validate()
    for cfg in configs:
        print(f"[{cfg.experiment}]")
        for key, (field, _) in _KEY_MAP.items():
            value = getattr(cfg, field)
            print(f"{key}={','.join(map(str, value)) if isinstance(value, tuple) else value}")
        print(f"# config-hash={cfg.digest()}")
    return 0


def _regular_target(path: Path) -> Path | None:
    """The file `path` names, through it if it is a symlink, when that is a
    regular file or nothing yet; None for anything else (a device, a FIFO,
    /dev/stdout on a pipe or a terminal).  `resolve` stats every component
    of a path (~30 µs for four on ext4), so only a link is resolved."""
    target = path.resolve() if path.is_symlink() else path
    if not path.exists():
        return target
    # /dev/stdout on a deleted file resolves to a name that is not the file.
    return target if path.is_file() and target.exists() and target.samefile(path) else None


def _open_output(path: Path, stack: contextlib.ExitStack, replacements: list) -> TextIO:
    """Open the file that takes `path`'s new text: for a regular target, a
    hidden sibling with its permission bits, listed in `replacements` with
    the target it replaces (a target `open("w")` refuses is refused); for
    anything else, or where no sibling can be made, `path` itself."""
    target = _regular_target(path)
    if target is None:
        return stack.enter_context(path.open("w"))
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        file = stack.enter_context(temp.open("w"))
    except PermissionError:  # a directory that takes no new file
        return stack.enter_context(path.open("w"))
    replacements.append((temp, target))
    if target.exists():
        target.open("a").close()
        os.fchmod(file.fileno(), stat.S_IMODE(target.stat().st_mode))
    return file


def _write_outputs(rows, experiment: str, out: str | None, fmt: str) -> list[str]:
    base = Path(out) if out else Path(f"{experiment}.{'csv' if fmt != 'json' else 'json'}")
    if base.is_symlink():  # name the JSON of --format both after the linked file
        base = _regular_target(base) or base
    paths = {}
    if fmt in ("csv", "both"):
        paths["csv"] = base if base.suffix == ".csv" or fmt == "csv" else base.with_suffix(".csv")
    if fmt in ("json", "both"):
        paths["json"] = base.with_suffix(".json") if base.suffix != ".json" else base
    # Each regular output is written whole to a hidden sibling, which then
    # replaces it: a failed run leaves every earlier output's bytes and no
    # temporary file, and a symlinked --out stays a link.
    replacements = []
    try:
        with contextlib.ExitStack() as stack:
            files = [_open_output(path, stack, replacements) for path in paths.values()]
            for pieces in text_pieces(rows, list(paths)):
                for file, piece in zip(files, pieces):
                    file.write(piece)
        for temp, target in replacements:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in replacements:
            temp.unlink(missing_ok=True)
        raise
    return list(map(str, paths.values()))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "show-config":
            return _show_config(args)
        cfg = resolve_config(args.command, args)
        rows = run_experiment(cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        written = _write_outputs(rows, cfg.experiment, args.out, args.format)
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 1
    print(f"{cfg.experiment}: {len(rows)} rows -> {', '.join(written)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
