"""In-memory spans around opdense's public functions, and the per-layer
metrics derived from them.

A ``Tracer`` replaces each traced function in every loaded ``opdense``
module that refers to it, so calls made inside the library (for example
``svm`` calling ``gram_matrix``) are caught at the name their caller looks
up. Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path


def _gram_cells(args, kwargs, result):
    return {"cells": int(result.shape[0] * result.shape[1])}


def _count_bytes(args, kwargs, result):
    image = args[0]
    return {"bytes": sum(len(s.raw_data) for s in image.executable_sections()),
            "instructions": result.decoded_instructions, "unknown_bytes": result.unknown_bytes}


def _smo(args, kwargs, result):
    return {"iterations": result.iterations, "cap_hits": int(result.hit_iteration_cap)}


def _support_vectors(args, kwargs, result):
    return {"support_vectors": result.n_support_vectors}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _sweep_steps(args, kwargs, result):
    return {"steps": len(result[2]) - 1}


# (module, attribute, annotate): every public function the workloads reach
TRACED = (
    ("opdense.pe", "parse_pe", None),
    ("opdense.x86", "count_opcodes", _count_bytes),
    ("opdense.reports", "format_report", None),
    ("opdense.reports", "parse_report", None),
    ("opdense.reports", "scan_directory", None),
    ("opdense.dataset", "build_master_list", None),
    ("opdense.dataset", "assemble", None),
    ("opdense.dataset", "sort_attributes_by_mean_density", None),
    ("opdense.dataset", "minmax_scale", None),
    ("opdense.dataset", "shuffle", None),
    ("opdense.dataset", "split_percentage", None),
    ("opdense.dataio", "write_dataset", _bytes_out),
    ("opdense.dataio", "read_dataset", None),
    ("opdense.kernels", "gram_matrix", _gram_cells),
    ("opdense.smo", "smo_solve", _smo),
    ("opdense.svm", "train_multiclass", _support_vectors),
    ("opdense.svm", "save_model", None),
    ("opdense.svm", "load_model", None),
    ("opdense.svm", "predict_dataset", _rows),
    ("opdense.evaluation", "holdout_evaluate", None),
    ("opdense.evaluation", "cross_validate", None),
    ("opdense.featsel.evaluators", "rank_attributes", None),
    ("opdense.featsel.evaluators", "pca_eval", None),
    ("opdense.featsel.evaluators", "CfsMeritScorer", None),
    ("opdense.featsel.search", "search_best_first", None),
    ("opdense.featsel.aggregate", "aggregate_rank", None),
    ("opdense.featsel.search", "tune_threshold", _sweep_steps),
)

# per-layer time metric -> traced functions whose self time it sums
SELF_TIME = {
    "pe.parse_s": ("parse_pe",),
    "x86.count_s": ("count_opcodes",),
    "reports.format_s": ("format_report",),
    "reports.parse_s": ("parse_report",),
    "reports.scan_s": ("scan_directory",),
    "dataset.assemble_s": ("build_master_list", "assemble", "sort_attributes_by_mean_density"),
    "dataset.prep_s": ("minmax_scale", "shuffle", "split_percentage"),
    "dataio.write_s": ("write_dataset",),
    "dataio.read_s": ("read_dataset",),
    "kernels.gram_s": ("gram_matrix",),
    "smo.solve_s": ("smo_solve",),
    "svm.train_s": ("train_multiclass",),
    "svm.save_s": ("save_model",),
    "svm.load_s": ("load_model",),
    "svm.predict_s": ("predict_dataset",),
    "evaluation.holdout_s": ("holdout_evaluate",),
    "evaluation.cv_s": ("cross_validate",),
    "featsel.rank_s": ("rank_attributes", "pca_eval", "aggregate_rank"),
    "featsel.cfs_s": ("CfsMeritScorer", "search_best_first"),
    "featsel.sweep_s": ("tune_threshold",),
}

# per-layer count metric -> (traced function, annotation summed; None counts calls)
COUNTS = {
    "x86.instructions": ("count_opcodes", "instructions"),
    "x86.unknown_bytes": ("count_opcodes", "unknown_bytes"),
    "reports.files": ("parse_report", None),
    "dataio.bytes": ("write_dataset", "bytes"),
    "kernels.gram_calls": ("gram_matrix", None),
    "kernels.gram_cells": ("gram_matrix", "cells"),
    "smo.solves": ("smo_solve", None),
    "smo.iterations": ("smo_solve", "iterations"),
    "smo.cap_hits": ("smo_solve", "cap_hits"),
    "svm.support_vectors": ("train_multiclass", "support_vectors"),
    "featsel.sweep_steps": ("tune_threshold", "steps"),
}

# per-layer rate metric -> (traced function, annotation, scale); inclusive time
RATES = {
    "x86.mb_per_s": ("count_opcodes", "bytes", 1e-6),
    "svm.predict_rows_per_s": ("predict_dataset", "rows", 1.0),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run: int  # 0 = set-up, k = k-th timed round
    attrs: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[index] = Span(name, start, time.perf_counter(), parent, self.run, None)
                raise
            finally:
                self._stack.pop()
            end = time.perf_counter()
            attrs = annotate(args, kwargs, result) if annotate else None
            self.spans[index] = Span(name, start, end, parent, self.run, attrs)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "opdense" or n.startswith("opdense.")]
        for module_name, attr, annotate in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(attr, original, annotate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "attrs": s.attrs}) + "\n")


def layer_metrics(spans: list[Span], runs: set[int]) -> dict[str, float]:
    """Self times, counts and rates over the spans of the given runs.

    A span's self time is its duration minus that of its direct children;
    calls are single-threaded, so children never overlap."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_time: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[tuple[str, str], float] = {}
    for i, s in enumerate(spans):
        if s.run not in runs:
            continue
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in (s.attrs or {}).items():
            sums[(s.name, key)] = sums.get((s.name, key), 0) + value
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_time.get(n, 0.0) for n in names)
    for metric, (name, key) in COUNTS.items():
        out[metric] = calls.get(name, 0) if key is None else sums.get((name, key), 0)
    for metric, (name, key, scale) in RATES.items():
        t = inclusive.get(name, 0.0)
        out[metric] = sums.get((name, key), 0) * scale / t if t > 0 else 0.0
    return out
