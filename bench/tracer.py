"""Span tracer for the public functions of the `subshot` modules.

The benchmark traces from the outside: it replaces each public function
listed in `TARGETS` by a wrapper that records a span (name, start, end,
parent), in every `subshot` module that binds the function.  Patching only the
defining module would miss the calls made through `from ... import` bindings,
such as `estimators.source_pmf` or `montecarlo.loss_matrix`.  A listed name
that no longer exists is reported in `absent` and left out; refactors that
delete or move functions must not break the benchmark.

Spans stay in memory while the traced passes run and are written out at the
end (`write_spans`).  A few functions also record one number from their
arguments or result (`_EXTRAS`), read after the span has ended so that it does
not count towards the function's time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# Layer (module of the package) -> public functions traced in it.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main", "resolve_config"),
    "experiments": ("run_experiment", "rows_to_csv"),
    "estimators": ("exact_report", "reference_mean", "asymptotic_relative_mse_floor"),
    "detection": ("nr_detected_pmf", "click_probability"),
    "sources": ("tune_pair_mean", "mux_output_pmf", "source_pmf"),
    "pmf": ("loss_matrix", "apply_loss", "poisson_support"),
    "montecarlo": ("mc_estimate", "fluctuation_study"),
}


def _experiment_label(cfg):
    if cfg.experiment == "fluctuations":
        return f"fluctuations-{cfg.redraw}"
    return cfg.experiment


def _hashable(*values):
    hash(values)
    return values


# Traced name -> (parameter names, function of their values and the result
# giving the one recorded value).
_EXTRAS = {
    "experiments.run_experiment": (("cfg",), lambda cfg, result: _experiment_label(cfg)),
    "experiments.rows_to_csv": ((), lambda result: len(result.encode())),
    "sources.mux_output_pmf": (("params", "eps"), lambda params, eps, result: _hashable(params, eps)),
    "pmf.loss_matrix": (("n_max",), lambda n_max, result: (n_max + 1) ** 2 * 8),
    "montecarlo.mc_estimate": (("spec", "trials"), lambda spec, trials, result: trials * spec.nu),
    "montecarlo.fluctuation_study": (("cfg",), lambda cfg, result: cfg.rounds * len(cfg.a_grid)),
}


def _argument_getter(fn, names: tuple[str, ...]):
    """Reads the named arguments of a call to `fn` from (args, kwargs).

    Cheaper per call than `inspect.Signature.bind`; raises KeyError when `fn`
    has no such parameter, so a changed signature is noticed at install time.
    """
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: (i, p.default) for i, p in enumerate(params)}
    slots = [(name, *index[name]) for name in names]

    def get(args, kwargs):
        values = []
        for name, i, default in slots:
            if name in kwargs:
                values.append(kwargs[name])
            elif i < len(args):
                values.append(args[i])
            elif default is not inspect.Parameter.empty:
                values.append(default)
            else:
                raise TypeError(f"missing argument {name}")
        return values

    return get


class Tracer:
    """Records spans of the traced functions while installed.

    `spans[i]` is `[name_id, start_ns, end_ns, parent_index, raised, extra]`;
    `names[name_id]` is `"<layer>.<function>"`.  `extra_misses` counts the
    functions and calls whose extra value could not be read because a
    signature changed.
    """

    def __init__(self, targets: dict[str, tuple[str, ...]] = TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.extra_misses = 0
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, object]] | None = None  # (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []

    def _build(self) -> list[tuple[object, object]]:
        wrappers = []
        for layer, functions in self.targets.items():
            try:
                module = importlib.import_module(f"subshot.{layer}")
            except ImportError:
                self.absent += [f"{layer}.{fn}" for fn in functions]
                continue
            for fn in functions:
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fn}")
                    continue
                self.names.append(f"{layer}.{fn}")
                wrappers.append((original, self._wrap(len(self.names) - 1, original)))
        return wrappers

    def install(self) -> None:
        """Patch every `subshot` binding of each traced function; repeatable."""
        if self._wrappers is None:
            self._wrappers = self._build()
        package = [m for n, m in list(sys.modules.items()) if n == "subshot" or n.startswith("subshot.")]
        for original, wrapper in self._wrappers:
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name_id: int, fn):
        extra, arguments = None, None
        if self.names[name_id] in _EXTRAS:
            names, extra = _EXTRAS[self.names[name_id]]
            try:
                arguments = _argument_getter(fn, names)
            except (KeyError, ValueError, TypeError):
                self.extra_misses += 1
                extra = None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1] if stack else -1, False, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = True
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if extra is not None:
                try:
                    span[5] = extra(*arguments(args, kwargs), result)
                except (TypeError, KeyError, AttributeError):
                    self.extra_misses += 1
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start and end (ns), parent index."""
        with gzip.open(path, "wt") as fh:
            for name_id, start, end, parent, raised, _ in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, raised]) + "\n")


def span_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-function totals over `tracer.spans[first:last]`, one sweep pass.

    For every traced function: `<name>.calls`, `<name>.errors`, `<name>.self_s`
    (inclusive time minus that of traced child calls) and `<name>.incl_s`.
    Plus the derived numbers the benchmark reports (see `run.py`).
    """
    names, spans = tracer.names, tracer.spans
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.errors"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.incl_s"] = 0.0
    child_ns = [0] * (last - first)
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= first:
            child_ns[parent - first] += spans[i][2] - spans[i][1]
    under_tuning = [False] * (last - first)
    tune_id = names.index("sources.tune_pair_mean") if "sources.tune_pair_mean" in names else -1
    per_experiment: dict[str, float] = {}
    extras: dict[str, list] = {}
    for i in range(first, last):
        name_id, start, end, parent, raised, extra = spans[i]
        name = names[name_id]
        incl = (end - start) * 1e-9
        out[f"{name}.calls"] += 1
        out[f"{name}.errors"] += int(raised)
        out[f"{name}.incl_s"] += incl
        out[f"{name}.self_s"] += incl - child_ns[i - first] * 1e-9
        if parent >= first:
            under_tuning[i - first] = under_tuning[parent - first] or spans[parent][0] == tune_id
        if extra is not None:
            extras.setdefault(name, []).append(extra)
            if name == "experiments.run_experiment":
                per_experiment[extra] = per_experiment.get(extra, 0.0) + incl
    for label, seconds in per_experiment.items():
        out[f"experiments.run_experiment.{label}_s"] = seconds
    mux_id = names.index("sources.mux_output_pmf") if "sources.mux_output_pmf" in names else -1
    out["sources.tune_pair_mean.pmf_builds"] = sum(
        1 for i in range(first, last) if spans[i][0] == mux_id and under_tuning[i - first]
    )
    keys = extras.get("sources.mux_output_pmf", [])
    out["sources.mux_output_pmf.distinct"] = len(set(keys))
    out["pmf.loss_matrix.bytes"] = sum(extras.get("pmf.loss_matrix", []))
    out["experiments.rows_to_csv.bytes"] = sum(extras.get("experiments.rows_to_csv", []))
    out["montecarlo.mc_estimate.samples"] = sum(extras.get("montecarlo.mc_estimate", []))
    out["montecarlo.fluctuation_study.round_evals"] = sum(extras.get("montecarlo.fluctuation_study", []))
    return out
