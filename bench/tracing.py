"""In-memory spans around the public functions of each pptedge layer.

:func:`traced` replaces, for the duration of a ``with`` block, every binding
of a public pptedge function (in every pptedge module namespace, so names
imported with ``from .x import f`` are covered too) by a wrapper that records
a span, and replaces ``numpy.linalg.eigh``, ``numpy.einsum`` and
``numpy.linalg.svd`` by wrappers that record ``kernel.*`` spans only while an
``optimize`` span is open. Nothing in the package is edited; leaving the block
restores every original binding.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the operation id set by the caller.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Each layer is the pptedge module of that name; every public function defined
# in it is wrapped as span "<layer>.<function>".
LAYERS = ("cli", "serialize", "catalog", "bipartite", "linalg", "criteria", "witness", "optimize")
KERNELS = ((np.linalg, "eigh"), (np, "einsum"), (np.linalg, "svd"))
BASIN_ATOL = 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.optimize_depth = 0
        # per optimize span index: sweeps, max sweeps, unconverged restarts, best-basin share
        self.opt_stats: dict[int, tuple[int, int, int, float]] = {}
        self.eigh_matrices = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def layer_wrapper(self, name: str, fn):
        is_optimize = name.startswith("optimize.")

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self.optimize_depth += is_optimize
            try:
                result = fn(*args, **kwargs)
            finally:
                self.optimize_depth -= is_optimize
                self._close(idx)
            if is_optimize and hasattr(result, "iterations_used"):
                self.opt_stats[idx] = _opt_stats(result)
            return result

        return wrapper

    def kernel_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.optimize_depth:
                return fn(*args, **kwargs)
            if name == "kernel.eigh":
                self.eigh_matrices += math.prod(np.shape(args[0])[:-2])
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Group the spans of one operation under a root span named ``op``."""
        self.op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _opt_stats(result) -> tuple[int, int, int, float]:
    values = np.asarray(result.restart_values)
    basin = float(np.mean(np.abs(values - result.best_value) <= BASIN_ATOL))
    return (
        int(np.sum(result.iterations_used)),
        int(np.max(result.iterations_used)),
        int(np.sum(~np.asarray(result.converged))),
        basin,
    )


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers around pptedge's public functions and numpy's see-saw kernels."""
    modules = [m for name, m in sys.modules.items() if name == "pptedge" or name.startswith("pptedge.")]
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"pptedge.{layer}"]
        for fname, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not fname.startswith("_"):
                wrappers[id(fn)] = (fn, tracer.layer_wrapper(f"{layer}.{fname}", fn))
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    for owner, attr in KERNELS:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.kernel_wrapper(f"kernel.{attr}", fn))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer figures from the spans recorded in ``n_ops`` traced operations."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, selfs):
        name = span[0]
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names) / n_ops

    def s(name: str) -> float:
        return own.get(name, 0.0) / n_ops

    def c(name: str) -> float:
        return calls.get(name, 0) / n_ops

    m: dict[str, float] = {}
    sweeps_total = 0
    for kind, fname in (("product", "optimize.min_generic_quadratic"), ("schmidt2", "optimize.min_schmidt2_expectation")):
        stats = [tracer.opt_stats[i] for i, span in enumerate(spans) if span[0] == fname and i in tracer.opt_stats]
        sweeps = sum(x[0] for x in stats)
        sweeps_total += sweeps
        m[f"optimize.{kind}.s"] = t(fname)
        m[f"optimize.{kind}.calls"] = c(fname)
        m[f"optimize.{kind}.sweeps"] = sweeps / n_ops
        m[f"optimize.{kind}.sweeps_max"] = max((x[1] for x in stats), default=0)
        m[f"optimize.{kind}.unconverged"] = sum(x[2] for x in stats) / n_ops
        m[f"optimize.{kind}.best_basin_frac"] = sum(x[3] for x in stats) / len(stats) if stats else 0.0
    eigh_calls = calls.get("kernel.eigh", 0)
    m["optimize.useful_eigh_frac"] = 2 * sweeps_total / tracer.eigh_matrices if tracer.eigh_matrices else 0.0
    m["kernel.eigh_s"] = t("kernel.eigh")
    m["kernel.eigh_calls"] = c("kernel.eigh")
    m["kernel.eigh_matrices"] = tracer.eigh_matrices / n_ops
    m["kernel.eigh_mean_batch"] = tracer.eigh_matrices / eigh_calls if eigh_calls else 0.0
    m["kernel.einsum_s"] = t("kernel.einsum")
    m["kernel.einsum_calls"] = c("kernel.einsum")
    m["kernel.svd_s"] = t("kernel.svd")
    m["criteria.certify_edge.self_s"] = s("criteria.certify_edge")
    m["criteria.certify_edge.calls"] = c("criteria.certify_edge")
    m["criteria.range_projectors.calls"] = c("criteria.range_projectors")
    m["criteria.is_ppt.s"] = t("criteria.is_ppt")
    m["criteria.is_ppt.calls"] = c("criteria.is_ppt")
    m["criteria.realignment.s"] = t("criteria.realignment_criterion")
    m["witness.kernel.self_s"] = s("witness.kernel_witness")
    m["witness.kernel.calls"] = c("witness.kernel_witness")
    m["witness.realign.s"] = t("witness.realignment_witness")
    m["witness.schmidt2.self_s"] = s("witness.schmidt2_evidence")
    m["witness.schmidt2.calls"] = c("witness.schmidt2_evidence")
    m["serialize.read_s"] = t("serialize.read_matrix_file")
    m["serialize.dump_s"] = t("serialize.dumps_canonical")
    m["bipartite.validate_s"] = t("bipartite.validate_density")
    m["bipartite.partial_transpose.s"] = t("bipartite.partial_transpose")
    m["bipartite.partial_transpose.calls"] = c("bipartite.partial_transpose")
    m["bipartite.realign.s"] = t("bipartite.realign")
    m["linalg.numeric_rank.s"] = t("linalg.numeric_rank")
    m["linalg.exact_rank.s"] = t("linalg.exact_rank")
    m["linalg.projector.s"] = t("linalg.range_projector", "linalg.span_projector")
    m["linalg.svd.s"] = t("linalg.svd", "linalg.trace_norm")
    m["cli.self_s"] = s("cli.main")
    op_time: dict[int, float] = {}
    op_opt: dict[int, float] = {}
    for span, self_s in zip(spans, selfs):
        if span[0] == "op":
            op_time[span[4]] = span[2] - span[1]
        elif span[0].startswith(("optimize.", "kernel.")):
            op_opt[span[4]] = op_opt.get(span[4], 0.0) + self_s
    m["trace.optimize_share"] = statistics.median(op_opt.get(op, 0.0) / t for op, t in op_time.items())
    return m
