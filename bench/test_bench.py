"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench

They check that the correctness gate rejects what it must and accepts what it
must, that failures are counted instead of aborting a run, and that the
tracer survives refactors of the traced package.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import calibrate
import gate
import run
import tracer as tracing

CLI = run.import_package()


def _cfg(**overrides):
    values = dict(seed=5, rounds=50, a_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6), digest=lambda: "abc123")
    values.update(overrides)
    return SimpleNamespace(**values)


def _with_run_columns(rows, seed_step=0):
    return [dict(row, seed=str(5 + i * seed_step), config_hash="abc123") for i, row in enumerate(rows)]


def test_exact_rows_pass_within_tolerance_and_fail_beyond_it():
    reference = gate.load_reference("nr-ratio")
    rows = _with_run_columns(reference)
    assert gate.check_exact("nr-ratio", rows, _cfg(), reference) == []

    last_digit = [dict(r) for r in rows]
    last_digit[17]["mse"] = repr(float(last_digit[17]["mse"]) * (1 + 1e-12))
    assert gate.check_exact("nr-ratio", last_digit, _cfg(), reference) == []

    perturbed = [dict(r) for r in rows]
    perturbed[17]["mse"] = repr(float(perturbed[17]["mse"]) * (1 + 1e-4))
    failures = gate.check_exact("nr-ratio", perturbed, _cfg(), reference)
    assert len(failures) == 1 and "row 17 column mse" in failures[0]


def test_empty_and_filled_cells_must_match():
    reference = gate.load_reference("nr-ratio")
    rows = _with_run_columns(reference)
    assert rows[0]["ratio_to_snl"] == ""
    rows[0]["ratio_to_snl"] = "1.0"
    rows[40]["variance"] = ""
    failures = gate.check_exact("nr-ratio", rows, _cfg(), reference)
    assert [f.split(":")[0] for f in failures] == ["nr-ratio row 0 column ratio_to_snl", "nr-ratio row 40 column variance"]


def test_wrong_seed_or_config_hash_fails():
    reference = gate.load_reference("asymptotic")
    rows = _with_run_columns(reference)
    assert gate.check_exact("asymptotic", rows, _cfg(seed=6), reference)
    assert gate.check_exact("asymptotic", rows, _cfg(digest=lambda: "other"), reference)


def _mc_rows(z=0.5):
    rows = []
    for ref in gate.load_reference("mc-validate"):
        mse = float(ref["mse_exact"])
        rows.append(dict(ref, expectation="0.8", mse=repr(mse), z_expectation=repr(z), z_mse=repr(-z)))
    return _with_run_columns(rows, seed_step=1)


def test_mc_validate_z_bound():
    assert gate.check_mc_validate(_mc_rows(), _cfg()) == []
    rows = _mc_rows()
    rows[3]["z_mse"] = "10.0"
    failures = gate.check_mc_validate(rows, _cfg())
    assert len(failures) == 1 and "row 3 column z_mse" in failures[0]


def _fluctuation_rows(mse_factor=1.0):
    rows = []
    for ref in gate.load_reference("fluctuations-exact"):
        for a in _cfg().a_grid:
            mse = float(ref["mse_exact"]) * mse_factor * (1 + 10 * a)
            rows.append(
                dict(
                    detector=ref["detector"],
                    source=ref["source"],
                    stages=ref["stages"],
                    fluctuation=repr(a),
                    mse=repr(mse),
                    ci_low=repr(mse / 4),
                    ci_high=repr(mse * 2),
                )
            )
    return _with_run_columns(rows)


def test_fluctuations_band_and_interval():
    assert gate.check_fluctuations(_fluctuation_rows(), _cfg()) == []
    assert len(gate.check_fluctuations(_fluctuation_rows(mse_factor=10.0), _cfg())) == 6
    assert len(gate.check_fluctuations(_fluctuation_rows(mse_factor=0.1), _cfg())) == 6
    rows = _fluctuation_rows()
    rows[2]["ci_low"], rows[2]["ci_high"] = rows[2]["ci_high"], rows[2]["ci_low"]
    rows[3]["mse"] = "nan"
    failures = gate.check_fluctuations(rows, _cfg())
    assert any("row 2 column ci_low" in f for f in failures)
    assert any("row 3 column mse" in f for f in failures)
    assert gate.check_fluctuations(rows[:-1], _cfg())


def test_raising_experiment_is_a_failed_operation(tmp_path):
    def main(argv):
        if argv[0] == "boom":
            raise ZeroDivisionError("model exploded")
        Path(argv[argv.index("--out") + 1]).write_text("x\n")
        return 0

    ops = [("boom", ["boom", "--out", str(tmp_path / "a.csv")]), ("fine", ["fine", "--out", str(tmp_path / "b.csv")])]
    sweeper = run.Sweeper(main, ops)
    sweeper.one_pass()
    sweeper.one_pass()
    assert [label for label, _, _ in sweeper.outcomes] == ["boom", "fine", "boom", "fine"]
    cfg = SimpleNamespace(experiment="fine")
    failed, messages = sweeper.gate({"fine": cfg, "boom": cfg})
    assert failed == 4  # both raised, and "fine" has no correctness check
    assert "boom: raised ZeroDivisionError: model exploded" in messages


def test_tracer_reports_missing_names_and_patches_every_binding():
    import subshot.estimators
    import subshot.montecarlo
    import subshot.pmf
    import subshot.sources
    from subshot import Coherent, Detector
    from subshot.detection import Channel

    original, original_source_pmf = subshot.pmf.loss_matrix, subshot.sources.source_pmf
    targets = {"pmf": ("loss_matrix", "no_such_function"), "sources": ("source_pmf",), "no_such_layer": ("f",)}
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        assert sorted(tracer.absent) == ["no_such_layer.f", "pmf.no_such_function"]
        assert subshot.montecarlo.loss_matrix is not original
        assert subshot.estimators.source_pmf is not original_source_pmf
        subshot.estimators.exact_report(Coherent(0.5), Detector.NUMBER_RESOLVING, Channel(0.5), 10)
    finally:
        tracer.uninstall()
    assert subshot.pmf.loss_matrix is original and subshot.montecarlo.loss_matrix is original
    tracer.install()  # again, as between alternating passes
    try:
        assert tracer.names == ["pmf.loss_matrix", "sources.source_pmf"] and len(tracer.absent) == 2
        assert subshot.montecarlo.loss_matrix is not original
    finally:
        tracer.uninstall()
    assert subshot.montecarlo.loss_matrix is original
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert "sources.source_pmf" in names and "pmf.loss_matrix" in names
    metrics = tracing.span_metrics(tracer, 0, len(tracer.spans))
    assert metrics["pmf.loss_matrix.calls"] == names.count("pmf.loss_matrix")
    assert metrics["pmf.loss_matrix.bytes"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer({})
    tracer.names = ["a", "b"]
    tracer.spans = [[0, 0, 10_000, -1, False, None], [1, 2_000, 5_000, 0, False, None], [1, 6_000, 7_000, 0, True, None]]
    m = tracing.span_metrics(tracer, 0, 3)
    assert m["a.self_s"] == pytest.approx(6e-6) and m["b.self_s"] == pytest.approx(4e-6)
    assert m["b.calls"] == 2 and m["b.errors"] == 1


def test_parse_importtime_counts_outermost_lines_once():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:       100 |        150 |   scipy",
            "import time:       400 |        400 |   scipy.stats",
            "import time:        10 |        860 | subshot",
        ]
    )
    assert run.parse_importtime(stderr) == pytest.approx({"numpy": 300e-6, "scipy": 550e-6, "subshot": 860e-6})


def test_rescaling_removes_a_uniform_slowdown_of_the_host():
    ref = calibrate.REFERENCE_S
    # Two passes of two operations, at the reference speed and at half of it.
    assert run.rescaled_passes([[1.0, 2.0], [1.0, 2.0]], [ref] * 5) == pytest.approx([3.0, 3.0])
    assert run.rescaled_passes([[2.0, 4.0], [2.0, 4.0]], [2 * ref] * 5) == pytest.approx([3.0, 3.0])
    # An interval is scaled by the mean of the blocks before and after it.
    assert calibrate.rescale([1.0, 3.0], [ref, 3 * ref, 3 * ref]) == pytest.approx([0.5, 1.0])
    with pytest.raises(ValueError):
        calibrate.rescale([1.0], [ref])


@pytest.mark.parametrize("bench_seed", [1, 2])
def test_monte_carlo_outputs_pass_the_gate_on_two_seeds(tmp_path, bench_seed):
    seed = run.program_seed(bench_seed)
    ops = run.command_lines("monte-carlo", seed, tmp_path)
    sweeper = run.Sweeper(CLI.main, ops)
    sweeper.one_pass()
    parser = CLI.build_parser()
    configs = {label: CLI.resolve_config(argv[0], parser.parse_args(argv)) for label, argv in ops}
    assert sweeper.gate(configs) == (0, [])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
