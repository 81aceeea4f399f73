"""Package-level properties that no single module test covers."""

import dataclasses
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import subshot
import subshot.experiments

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_does_not_load_scipy():
    """scipy is a test dependency only: importing the package must not load it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, subshot; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_readme_library_example_runs():
    """The README's "Library use" block runs as written, so a signature
    change cannot leave it stale."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert len(out.stdout.split()) == 4


def test_every_package_module_is_loaded():
    """tests/conftest.py loads every module of the package (the `python -m`
    entry point aside, which would run the command line), so hypothesis
    draws its examples from the same constants whichever tests run."""
    names = {f"subshot.{m.name}" for m in pkgutil.iter_modules(subshot.__path__)}
    assert names - {"subshot.__main__"} <= sys.modules.keys()


def test_result_records_are_named_tuples_with_pinned_fields():
    """Result records unpack by position and the runners read their columns
    by field name (`experiments._columns`), so each record's fields are
    pinned in order; the validated inputs stay frozen dataclasses, which
    never compare equal across kinds."""
    records = {
        subshot.Moments: ("mean", "variance"),
        subshot.EstimatorReport: (
            "transmission", "nu", "expectation", "bias", "variance", "mse",
            "relative_mse_percent",
        ),
        subshot.McEstimate: ("expectation", "expectation_se", "mse", "mse_se"),
        subshot.McSummary: ("fluctuation", "mean_mse", "mse_se", "ci_low", "ci_high", "mse_exact"),
    }
    for record, fields in records.items():
        assert issubclass(record, tuple) and record._fields == fields
    inputs = (subshot.Coherent, subshot.Fock, subshot.Multiplexed, subshot.Channel,
              subshot.FluctuationConfig, subshot.experiments.SweepConfig)
    for kind in inputs:
        assert dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen
        assert not issubclass(kind, tuple)
    assert subshot.Coherent(1.0) != subshot.Fock(1)
