"""Write the correctness gate's reference snapshot from the current sources.

    python3 bench/make_reference.py

Runs every exactly computed experiment of the benchmark at its CLI defaults
and stores the rows under `bench/reference/`, without the `seed` and
`config_hash` columns, which the gate checks against the run's own
configuration.  For `mc-validate` only the row keys and `mse_exact` are kept;
for `fluctuations` the exact MSE of every (detector, source) pair at the
study's operating point, which its a = 0 rows are tested against.

Regenerate only when a change of the physics is intended: the snapshot is
what keeps a faster engine honest.
"""

from __future__ import annotations

import csv
import gzip
import io
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate  # noqa: E402
from subshot import Coherent, Detector, exact_report, make_multiplexed  # noqa: E402
from subshot.cli import build_parser, resolve_config  # noqa: E402
from subshot.detection import Channel  # noqa: E402
from subshot.experiments import rows_to_csv, run_experiment  # noqa: E402


def _resolved(experiment: str):
    args = build_parser().parse_args([experiment])
    return resolve_config(experiment, args)


def _write(name: str, columns, records) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    path = gate.REFERENCE_DIR / f"{name}.csv.gz"
    # mtime=0 keeps the file byte-identical when nothing changed.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(buf.getvalue().encode())
    print(f"{path.relative_to(BENCH_DIR.parent)}: {len(records)} rows")


def fluctuation_exact_rows(cfg) -> list[dict]:
    channel = Channel(cfg.transmission, cfg.detector_eff)
    mean = cfg.mean_photons
    sources = [(None, Coherent(mean))]
    sources += [
        (
            m,
            make_multiplexed(
                m,
                mean,
                herald_eff=cfg.herald_eff,
                stage_transmission=cfg.stage_transmission,
                optics_transmission=cfg.optics_transmission,
            ),
        )
        for m in cfg.stage_counts
    ]
    rows = []
    for detector in (Detector.NUMBER_RESOLVING, Detector.THRESHOLD):
        for stages, source in sources:
            rows.append(
                {
                    "detector": detector.value,
                    "source": "coherent" if stages is None else "multiplexed",
                    "stages": "" if stages is None else stages,
                    "mse_exact": repr(exact_report(source, detector, channel, cfg.nu).mse),
                }
            )
    return rows


def main() -> int:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for experiment in gate.EXACT_EXPERIMENTS + ("mc-validate",):
        rows = gate.parse_csv(rows_to_csv(run_experiment(_resolved(experiment))))
        keep = [c for c in rows[0] if c not in gate.RUN_COLUMNS]
        if experiment == "mc-validate":
            keep = list(gate.KEY_COLUMNS) + ["mse_exact"]
        _write(experiment, keep, rows)
    _write(
        "fluctuations-exact",
        ("detector", "source", "stages", "mse_exact"),
        fluctuation_exact_rows(_resolved("fluctuations")),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
