"""Correctness gate for the CSV rows a benchmark operation writes.

Exact experiments are compared column by column against a reference snapshot
(`reference/<experiment>.csv.gz`).  Numbers may differ by a relative
tolerance with an absolute floor, which admits last-digit changes from a
re-derived formula or a tighter pump tuning but not a different model; an
empty cell must stay empty and a filled one filled.

Monte Carlo rows are checked statistically, never by bytes, so a change of
the random-stream layout passes while a wrong sampler does not:

* `mc-validate`: |z| of the expectation and of the MSE against the exact
  report stays within `Z_MAX`, and `mse_exact` matches the snapshot.
* `fluctuations`: every value is finite with 0 <= ci_low <= ci_high, and the
  a = 0 MSE (no pump fluctuation) lies in a band around the exact MSE.  The
  round squared errors of a near-Gaussian estimate average to
  exact * chi2(rounds) / rounds, whose relative spread is sqrt(2/rounds); the
  band is that distribution's central interval at `Z_MAX` standard normal
  deviates (Wilson-Hilferty), about 1 - 3.5 and 1 + 6.7 times sqrt(2/rounds)
  at 50 rounds.

Each check returns a list of failure messages naming the row and column; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RTOL = 1e-6
ATOL = 1e-12
Z_MAX = 5.0

# Columns that identify a row; everything else is a value.
KEY_COLUMNS = ("experiment", "source", "detector", "stages", "t", "mean_photons", "fluctuation", "nu")
# Columns that record the run rather than the physics; checked against the
# configuration instead of the snapshot.
RUN_COLUMNS = ("seed", "config_hash")

EXACT_EXPERIMENTS = ("nr-ratio", "threshold-ratio", "asymptotic", "intensity-sweep")


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def load_reference(name: str) -> list[dict[str, str]]:
    with gzip.open(REFERENCE_DIR / f"{name}.csv.gz", "rt", newline="") as fh:
        return parse_csv(fh.read())


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def cell_mismatch(got: str, want: str, rtol: float = RTOL, atol: float = ATOL) -> str | None:
    """Why `got` does not match the reference cell `want`, or None."""
    if (got == "") != (want == ""):
        return f"got {got or 'empty'}, want {want or 'empty'}"
    g, w = _float(got), _float(want)
    if g is None or w is None:
        return None if got == want else f"got {got!r}, want {want!r}"
    if math.isnan(w):
        return None if math.isnan(g) else f"got {got}, want nan"
    if not abs(g - w) <= max(rtol * abs(w), atol):
        return f"got {got}, want {want} (rtol {rtol:g}, atol {atol:g})"
    return None


def _check_run_columns(experiment: str, rows, cfg, seed_step: int = 0) -> list[str]:
    failures = []
    digest = cfg.digest()
    for i, row in enumerate(rows):
        want_seed = cfg.seed + i * seed_step
        if row.get("seed") != str(want_seed):
            failures.append(f"{experiment} row {i} column seed: got {row.get('seed')}, want {want_seed}")
        if row.get("config_hash") != digest:
            failures.append(
                f"{experiment} row {i} column config_hash: got {row.get('config_hash')}, want {digest}"
            )
    return failures


def compare_rows(experiment: str, rows, reference, columns) -> list[str]:
    """Row count and the given columns of `rows` against `reference`."""
    if len(rows) != len(reference):
        return [f"{experiment}: {len(rows)} rows, reference has {len(reference)}"]
    failures = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        for col in columns:
            if col not in row:
                failures.append(f"{experiment} row {i} column {col}: missing")
                continue
            why = cell_mismatch(row[col], ref[col])
            if why:
                failures.append(f"{experiment} row {i} column {col}: {why}")
    return failures


def check_exact(experiment: str, rows, cfg, reference=None) -> list[str]:
    reference = load_reference(experiment) if reference is None else reference
    columns = [c for c in reference[0] if c not in RUN_COLUMNS]
    return compare_rows(experiment, rows, reference, columns) + _check_run_columns(
        experiment, rows, cfg
    )


def check_mc_validate(rows, cfg, reference=None) -> list[str]:
    reference = load_reference("mc-validate") if reference is None else reference
    failures = compare_rows("mc-validate", rows, reference, KEY_COLUMNS + ("mse_exact",))
    for i, row in enumerate(rows):
        for col in ("expectation", "mse", "z_expectation", "z_mse"):
            value = _float(row.get(col, ""))
            if value is None or not math.isfinite(value):
                failures.append(f"mc-validate row {i} column {col}: not a finite number ({row.get(col)!r})")
            elif col.startswith("z_") and abs(value) > Z_MAX:
                failures.append(f"mc-validate row {i} column {col}: |z| = {abs(value):.3g} > {Z_MAX:g}")
    return failures + _check_run_columns("mc-validate", rows, cfg, seed_step=1)


def chi2_mean_band(rounds: int, z: float = Z_MAX) -> tuple[float, float]:
    """Central interval of chi2(rounds) / rounds at +-z normal deviates."""
    k = float(rounds)
    c = 2.0 / (9.0 * k)
    lo = max(1.0 - c - z * math.sqrt(c), 0.0) ** 3
    hi = (1.0 - c + z * math.sqrt(c)) ** 3
    return lo, hi


def check_fluctuations(rows, cfg, reference=None) -> list[str]:
    reference = load_reference("fluctuations-exact") if reference is None else reference
    exact = {(r["detector"], r["source"], r["stages"]): float(r["mse_exact"]) for r in reference}
    failures = []
    want_keys = {(*k, repr(float(a))) for k in exact for a in cfg.a_grid}
    got_keys = {(r.get("detector"), r.get("source"), r.get("stages"), r.get("fluctuation")) for r in rows}
    if got_keys != want_keys or len(rows) != len(want_keys):
        failures.append(
            f"fluctuations: {len(rows)} rows over keys {sorted(got_keys - want_keys)[:3]} "
            f"not matching the expected {len(want_keys)} (missing {sorted(want_keys - got_keys)[:3]})"
        )
    lo, hi = chi2_mean_band(cfg.rounds)
    for i, row in enumerate(rows):
        values = {}
        for col in ("mse", "ci_low", "ci_high"):
            value = _float(row.get(col, ""))
            if value is None or not math.isfinite(value) or value < 0:
                failures.append(f"fluctuations row {i} column {col}: not a finite number >= 0 ({row.get(col)!r})")
            values[col] = value
        if None not in values.values() and not values["ci_low"] <= values["ci_high"]:
            failures.append(f"fluctuations row {i} column ci_low: {values['ci_low']} > ci_high {values['ci_high']}")
        key = (row.get("detector"), row.get("source"), row.get("stages"))
        if _float(row.get("fluctuation", "")) == 0.0 and key in exact and values["mse"] is not None:
            want = exact[key]
            if not lo * want <= values["mse"] <= hi * want:
                failures.append(
                    f"fluctuations row {i} column mse: a=0 MSE {values['mse']:.6g} outside "
                    f"[{lo * want:.6g}, {hi * want:.6g}] around exact {want:.6g}"
                )
    return failures + _check_run_columns("fluctuations", rows, cfg)


def check(experiment: str, text: str, cfg) -> list[str]:
    """Gate one operation's CSV output; `cfg` is its resolved SweepConfig."""
    try:
        rows = parse_csv(text)
    except csv.Error as err:
        return [f"{experiment}: unreadable CSV: {err}"]
    if not rows:
        return [f"{experiment}: no rows"]
    if experiment in EXACT_EXPERIMENTS:
        return check_exact(experiment, rows, cfg)
    if experiment == "mc-validate":
        return check_mc_validate(rows, cfg)
    if experiment == "fluctuations":
        return check_fluctuations(rows, cfg)
    return [f"{experiment}: no correctness check defined"]
