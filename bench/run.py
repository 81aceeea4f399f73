"""Benchmark of the subshot sweeps, end to end and layer by layer.

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/`.  Each
invocation is one workload in one fresh process, so its set-up time and peak
memory belong to that workload.

A run, in order:

1. Set-up: `SETUP_PROBES` fresh interpreters (`probe.py`) each import
   `subshot` and resolve the workload's configurations.
2. Sweep passes: one pass runs every experiment of the workload once through
   `subshot.cli.main`, writing `--out` into a scratch directory.  One
   experiment run is one operation.  `WARMUP_PASSES` passes are run first and
   not timed, then passes are timed until `--seconds` have passed.
   Between the probes and between the timed operations, `calibrate.block()`
   times a fixed reference kernel, which measures the host's speed at that
   moment.
3. Correctness gate (`gate.py`), outside the timed region, on the output of
   every operation.  An operation fails if it raises, exits non-zero, or its
   rows fail the gate.

With `--trace 0` the last line reports the end-to-end metrics:

* `setup_s` (s): median set-up time over the probes, from process start.
* `sweep_s` (s): median wall time of a timed pass.  The sample count and, with
  at least 20 passes, the highest percentile with ten samples beyond it are
  printed above the result.
* `peak_rss_mb` (MB): peak resident memory of this process.
* `success_rate` (ratio): operations passed over operations attempted, that is
  1 - error_rate.  The benchmark reports the success rate because a metric
  must never read 0; `error_rate` is printed above the result.

Both times are rescaled to the reference speed (`calibrate.rescale`): each
probe and each operation is scaled by the reference kernel's time around it,
and a pass's rescaled time is the sum of its operations'.  So the shared
host's drift in speed, which outlasts a run, does not read as a change of the
program.  The unscaled wall times are printed above the result and kept in
the record.

With `--trace 1` the set-up probes also run under `python -X importtime`, the
timed passes alternate between untraced ones and ones traced by `tracer.py`,
and the last line reports the per-layer metrics (`PER_LAYER`).
Metrics ending in `_s` are self time per pass (inclusive time minus that of
traced child calls), except `experiments.run_experiment.<label>_s` and
`sources.tune_pair_mean.incl_s`, which are inclusive.  Counts are per pass.
`pmf.loss_matrix.bytes` is computed from the matrix sizes, not measured.
`trace.overhead_s` is the traced minus the untraced median pass time.

Every run prints its provenance (commit, versions, CPUs, BLAS threads, seeds
and configuration digests) and writes it with all metrics and samples to
`.bench_results/`; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import gate
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"

# Workload -> experiment command lines, all at CLI defaults.  Why each was
# chosen is recorded in BENCHMARK.json.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "exact-grid": (("nr-ratio",), ("threshold-ratio",), ("asymptotic",)),
    "pump-tuning": (("intensity-sweep",),),
    "monte-carlo": (
        ("mc-validate",),
        ("fluctuations", "--redraw", "per-round"),
        ("fluctuations", "--redraw", "per-repetition"),
    ),
}

SETUP_PROBES = 5
WARMUP_PASSES = 1
MIN_TIMED_PASSES = 3
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

EXPERIMENT_LABELS = (
    "nr-ratio",
    "threshold-ratio",
    "asymptotic",
    "intensity-sweep",
    "mc-validate",
    "fluctuations-per-round",
    "fluctuations-per-repetition",
)

# Per-layer metric -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "import.numpy_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "import.subshot_s": ("s", "lower"),
    "cli.resolve_config_s": ("s", "lower"),
    "experiments.rows_to_csv_s": ("s", "lower"),
    "experiments.rows_to_csv.bytes": ("bytes", "lower"),
    **{f"experiments.run_experiment.{label}_s": ("s", "lower") for label in EXPERIMENT_LABELS},
    "estimators.exact_report.calls": ("count", "lower"),
    "estimators.exact_report_s": ("s", "lower"),
    "estimators.reference_mean.calls": ("count", "lower"),
    "estimators.asymptotic_relative_mse_floor_s": ("s", "lower"),
    "detection.nr_detected_pmf_s": ("s", "lower"),
    "detection.click_probability_s": ("s", "lower"),
    "sources.tune_pair_mean.calls": ("count", "lower"),
    "sources.tune_pair_mean_s": ("s", "lower"),
    "sources.tune_pair_mean.incl_s": ("s", "lower"),
    "sources.tune_pair_mean.pmf_builds_per_call": ("builds/call", "lower"),
    "sources.mux_output_pmf.calls": ("count", "lower"),
    "sources.mux_output_pmf_s": ("s", "lower"),
    "sources.mux_output_pmf.distinct_ratio": ("ratio", "higher"),
    "pmf.loss_matrix.calls": ("count", "lower"),
    "pmf.loss_matrix_s": ("s", "lower"),
    "pmf.loss_matrix.bytes": ("bytes-computed", "lower"),
    "pmf.apply_loss_s": ("s", "lower"),
    "pmf.poisson_support.calls": ("count", "lower"),
    "montecarlo.mc_estimate_s": ("s", "lower"),
    "montecarlo.mc_estimate.samples_per_s": ("1/s", "higher"),
    "montecarlo.fluctuation_study_s": ("s", "lower"),
    "montecarlo.fluctuation_study.round_evals_per_s": ("1/s", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in tracing.TARGETS},
    **{f"{layer}.{fn}.errors": ("count", "lower") for layer, fns in tracing.TARGETS.items() for fn in fns},
    "trace.overhead_s": ("s", "lower"),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def program_seed(seed: int) -> int:
    """The seed handed to the program, derived from the benchmark seed."""
    return random.Random(seed).randrange(1, 2**31 - 64)


def command_lines(workload: str, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every operation of one pass."""
    ops = []
    for args in WORKLOADS[workload]:
        label = args[0] if len(args) == 1 else f"{args[0]}-{args[-1]}"
        ops.append((label, [*args, "--seed", str(seed), "--out", str(workdir / f"{label}.csv")]))
    return ops


def _package_in_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def parse_importtime(stderr: str, packages=("numpy", "scipy", "subshot")) -> dict[str, float]:
    """Cumulative import time (s) per package from `-X importtime` output.

    Sums the cumulative time of each package's outermost module lines, so a
    package imported piecewise from several places (scipy, scipy.stats) is
    counted once in full.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = dict.fromkeys(packages, 0.0)
    ancestors: list[tuple[int, str]] = []
    # Lines come children first; walking backwards visits parents first.
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for pkg in packages:
            inside = name == pkg or name.startswith(pkg + ".")
            if inside and not any(a == pkg or a.startswith(pkg + ".") for _, a in ancestors):
                totals[pkg] += seconds
        ancestors.append((depth, name))
    return totals


def run_probes(ops, count: int, importtime: bool) -> tuple[list[float], list[float], list[dict[str, float]]]:
    """Set-up times of `count` fresh interpreters, the calibration blocks
    around them, and their import times."""
    lines = [" ".join(argv[: argv.index("--out")]) for _, argv in ops]
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH_DIR / "probe.py"), str(SRC), *lines]
    times, blocks, imports = [], [calibrate.block()], []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr.strip()[-2000:]}")
        ready, path = proc.stdout.split()[:2]
        if not _package_in_src(path):
            raise BenchmarkError(f"set-up probe imported subshot from {path}, not from {SRC}")
        times.append(float(ready) - start)
        if importtime:
            imports.append(parse_importtime(proc.stderr))
        blocks.append(calibrate.block())
    return times, blocks, imports


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import subshot.cli
    except ImportError as err:
        raise BenchmarkError(f"cannot import subshot: {err}") from err
    if not _package_in_src(subshot.__file__):
        raise BenchmarkError(f"imported subshot from {subshot.__file__}, not from {SRC}")
    return subshot.cli


def run_operation(main, argv: list[str]) -> tuple[float, str | None]:
    """Run one experiment through the CLI: (wall seconds, error or None)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except (Exception, SystemExit) as err:  # a raising experiment is one failed operation
        return time.perf_counter() - start, f"raised {type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {sink.getvalue().strip()[-500:]}"
    return elapsed, None


class Sweeper:
    """Runs sweep passes and keeps what the gate needs from each operation."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.outcomes: list[tuple[str, str | None, str | None]] = []  # label, error, output sha
        self.outputs: dict[str, str] = {}

    def one_pass(self, blocks: list[float] | None = None) -> list[float]:
        """Runs every operation once; returns their wall times.  With `blocks`,
        times a calibration block before every operation into it."""
        times = []
        for label, argv in self.ops:
            if blocks is not None:
                blocks.append(calibrate.block())
            elapsed, error = run_operation(self.main, argv)
            times.append(elapsed)
            sha = None
            if error is None:
                text = Path(argv[argv.index("--out") + 1]).read_text()
                sha = hashlib.sha256(text.encode()).hexdigest()
                self.outputs.setdefault(sha, text)
            self.outcomes.append((label, error, sha))
        return times

    def timed(self, seconds: float) -> tuple[list[list[float]], list[float]]:
        """Passes until `seconds` have passed; per pass, the operation times,
        and the calibration blocks before every operation and after the last."""
        passes: list[list[float]] = []
        blocks: list[float] = []
        start = time.perf_counter()
        while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
            passes.append(self.one_pass(blocks))
        blocks.append(calibrate.block())
        return passes, blocks

    def traced(self, seconds: float, tracer: tracing.Tracer):
        """Alternates untraced and traced passes until `seconds` have passed,
        so that both see the same machine; returns the untraced and the traced
        operation times and each traced pass's span index range."""
        untraced, traced, ranges = [], [], []
        start = time.perf_counter()
        while len(traced) < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
            untraced.append(self.one_pass())
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(self.one_pass())
            finally:
                tracer.uninstall()
            ranges.append((first, len(tracer.spans)))
        return untraced, traced, ranges

    def gate(self, configs) -> tuple[int, list[str]]:
        """Failed operation count and failure messages, outside any timing."""
        verdicts: dict[tuple[str, str], list[str]] = {}
        failed, messages = 0, []
        for label, error, sha in self.outcomes:
            if error is None:
                key = (label, sha)
                if key not in verdicts:
                    cfg = configs[label]
                    verdicts[key] = gate.check(cfg.experiment, self.outputs[sha], cfg)
                    messages += verdicts[key][:20]
                if verdicts[key]:
                    failed += 1
            else:
                failed += 1
                messages.append(f"{label}: {error}")
        return failed, messages


def rescaled_passes(passes: list[list[float]], blocks: list[float]) -> list[float]:
    """Pass times with every operation rescaled by the blocks around it."""
    scaled = iter(calibrate.rescale([t for p in passes for t in p], blocks))
    return [sum(next(scaled) for _ in p) for p in passes]


def pass_summary(times: list[float]) -> dict:
    """Median, sample count and the tail percentile that has ten samples beyond it."""
    summary = {"median": statistics.median(times), "n": len(times)}
    if len(times) >= 20:
        pct = int(100 * (1 - 10 / len(times)))
        summary[f"p{pct}"] = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return summary


def per_layer_metrics(passes: list[dict[str, float]], imports: list[dict[str, float]], overhead: float) -> dict:
    """The PER_LAYER values from per-pass span totals (medians over passes)."""

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    def ratio(num: str, den: str) -> float:
        return statistics.median(p[num] / p[den] if p.get(den) else 0.0 for p in passes)

    values = {f"import.{pkg}_s": statistics.median(i[pkg] for i in imports) for pkg in ("numpy", "scipy", "subshot")}
    values.update(
        {
            "sources.tune_pair_mean.pmf_builds_per_call": ratio(
                "sources.tune_pair_mean.pmf_builds", "sources.tune_pair_mean.calls"
            ),
            "sources.mux_output_pmf.distinct_ratio": ratio(
                "sources.mux_output_pmf.distinct", "sources.mux_output_pmf.calls"
            ),
            "montecarlo.mc_estimate.samples_per_s": ratio(
                "montecarlo.mc_estimate.samples", "montecarlo.mc_estimate.incl_s"
            ),
            "montecarlo.fluctuation_study.round_evals_per_s": ratio(
                "montecarlo.fluctuation_study.round_evals", "montecarlo.fluctuation_study.incl_s"
            ),
            "trace.overhead_s": overhead,
        }
    )
    for name in PER_LAYER.keys() - values.keys():
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            fns = tracing.TARGETS[layer]
            values[name] = statistics.median(sum(p.get(f"{layer}.{fn}.self_s", 0.0) for fn in fns) for p in passes)
        elif rest.endswith(".errors"):
            values[name] = sum(p.get(name, 0) for p in passes)
        elif f"{name[:-2]}.self_s" in passes[0]:
            values[name] = med(f"{name[:-2]}.self_s")  # `<layer>.<function>_s` is self time
        else:
            values[name] = med(name)  # counts, bytes and inclusive times
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "subshot").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, seed: int, configs) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": args.seed,
        "program_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_digests": {label: cfg.digest() for label, cfg in configs.items()},
    }


def benchmark(args) -> tuple[dict, dict]:
    """Run one workload; returns (final result, record written to disk)."""
    if not (SRC / "subshot" / "__init__.py").is_file():
        raise BenchmarkError(f"no subshot package under {SRC}")
    seed = program_seed(args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="work-") as work:
        ops = command_lines(args.workload, seed, Path(work))
        setup_times, setup_blocks, imports = run_probes(ops, SETUP_PROBES, importtime=bool(args.trace))
        cli = import_package()
        parser = cli.build_parser()
        configs = {}
        for label, argv in ops:
            parsed = parser.parse_args(argv)
            configs[label] = cli.resolve_config(parsed.command, parsed)
        record = {
            "provenance": provenance(args, seed, configs),
            "setup_samples_s": setup_times,
            "setup_blocks_s": setup_blocks,
        }

        # Late binding, so that the traced passes call the patched `cli.main`.
        sweeper = Sweeper(lambda argv: cli.main(argv), ops)
        for _ in range(WARMUP_PASSES):
            sweeper.one_pass()
        if not args.trace:
            passes, blocks = sweeper.timed(args.seconds)
            record["pass_blocks_s"] = blocks
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        else:
            tracer = tracing.Tracer()
            passes, traced, ranges = sweeper.traced(args.seconds, tracer)
            traced = [sum(p) for p in traced]
            span_totals = [tracing.span_metrics(tracer, a, b) for a, b in ranges]
            overhead = statistics.median(traced) - statistics.median(sum(p) for p in passes)
            tracer.write_spans(RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
            record.update(
                traced_pass_s=traced,
                absent=tracer.absent,
                extra_misses=tracer.extra_misses,
                import_samples_s=imports,
            )
        failed, messages = sweeper.gate(configs)

    attempted = len(sweeper.outcomes)
    times = [sum(p) for p in passes]
    record["operation_s"] = {label: [p[i] for p in passes] for i, (label, _) in enumerate(ops)}
    record.update(pass_s=times, sweep=pass_summary(times), attempted=attempted, failed=failed, failures=messages)
    record["error_rate"] = failed / attempted
    if args.trace:
        metrics = per_layer_metrics(span_totals, imports, overhead)
    else:
        record["wall_median_s"] = {"setup": statistics.median(setup_times), "sweep": statistics.median(times)}
        values = {
            "setup_s": statistics.median(calibrate.rescale(setup_times, setup_blocks)),
            "sweep_s": statistics.median(rescaled_passes(passes, blocks)),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def report(record: dict) -> None:
    """Human-readable lines printed above the result."""
    for message in record["failures"][:50]:
        print(f"FAILED {message}")
    sweep = record["sweep"]
    tail = ", ".join(f"{k} {v:.4f} s" for k, v in sweep.items() if k.startswith("p"))
    print(f"sweep passes: {sweep['n']} timed after {WARMUP_PASSES} warm-up, unscaled median {sweep['median']:.4f} s"
          + (f", {tail}" if tail else ""))
    if "wall_median_s" in record:
        wall = record["wall_median_s"]
        print(f"unscaled wall medians: setup {wall['setup']:.4f} s, sweep {wall['sweep']:.4f} s; "
              f"calibration block median {statistics.median(record['pass_blocks_s']):.4f} s "
              f"(reference {calibrate.REFERENCE_S} s)")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed")
    print(f"error_rate = {record['error_rate']:.6g} ratio")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if record.get("absent"):
        print(f"absent (not traced): {', '.join(record['absent'])}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = benchmark(args)
    except BenchmarkError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
