"""Benchmark of ``pptedge analyze``, end to end and per layer.

Run from the repository root::

    python3 bench/run.py --workload analyze-edge --seed 1 --seconds 50 --trace 0

Workloads (inputs and checks in ``bench/workloads.py``):

* ``analyze-edge``: ``analyze rho_5_5`` and ``analyze rho_6_6``, alternating;
* ``screen-files``: ``analyze <file>`` over a seeded stream of NPT, full-rank
  PPT, malformed and non-PSD matrix files;
* ``analyze-separable``: ``analyze <file>`` on seeded separable mixtures of
  4 to 7 product states.

One process drives the program through ``pptedge.cli.main`` with stdout
captured: a closed loop with one client, each operation one CLI command, the
workload seed passed as ``--seed`` and every other flag at its default. Every
operation's exit code and report are checked; a wrong answer is a failure.
A pass is one run over every input of the workload, in order; the loop
ends on a whole pass.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with spans around every public pptedge function and
the see-saw's numpy kernels (``bench/tracing.py``), and reports per-layer
figures per operation. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines give the
environment, extra figures and every failing operation. Inputs, a result file
and the spans are written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of this many fresh interpreters, each timing its own
# import of the package and build of the catalog, as every CLI invocation does
# before its command runs. Interpreter start and exit are left out: they are
# not the program's work, and on a shared 2-core VM their wall time jumps in
# steps of about 50 ms with host scheduling. One sample costs about 0.25 s.
SETUP_REPEATS = 25
SETUP_CODE = """import time
start = time.perf_counter()
import pptedge
from pptedge import catalog
catalog.entries()
print(repr(time.perf_counter() - start))
"""
CATALOG_PROBES = 7
P90_MIN_SAMPLES = 100

# inputs_p90_s is the wall time of one pass over the workload's inputs with
# every input at its own 90th-percentile time (lower nearest rank over its
# repeats in the run). On a shared 2-core VM the host's speed drifts, over
# seconds to minutes, between an uncontended state and one about 2x slower,
# with bursts slower still. The share of a run spent in each state changes
# from run to run, so over ten seeds the mean rate (ops_per_s) and the median
# op spread by 0.2-0.3, and the slowest pass by up to 0.35. Nearly every run
# of 50 s spends more than a tenth of its time in the slow state, whose speed
# repeats, and bursts take less than a tenth, so this figure spread by
# 0.07-0.16 on the same runs.
END_TO_END_UNITS = {"setup_s": "s", "inputs_p90_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{
        f"optimize.{kind}.{m}": unit
        for kind in ("product", "schmidt2")
        for m, unit in (
            ("s", "s/op"),
            ("calls", "count/op"),
            ("sweeps", "count/op"),
            ("sweeps_max", "count"),
            ("unconverged", "count/op"),
            ("best_basin_frac", "ratio"),
        )
    },
    "optimize.useful_eigh_frac": "ratio",
    "kernel.eigh_s": "s/op",
    "kernel.eigh_calls": "count/op",
    "kernel.eigh_matrices": "count/op",
    "kernel.eigh_mean_batch": "count",
    "kernel.einsum_s": "s/op",
    "kernel.einsum_calls": "count/op",
    "kernel.svd_s": "s/op",
    "criteria.certify_edge.self_s": "s/op",
    "criteria.certify_edge.calls": "count/op",
    "criteria.range_projectors.calls": "count/op",
    "criteria.is_ppt.s": "s/op",
    "criteria.is_ppt.calls": "count/op",
    "criteria.realignment.s": "s/op",
    "witness.kernel.self_s": "s/op",
    "witness.kernel.calls": "count/op",
    "witness.realign.s": "s/op",
    "witness.schmidt2.self_s": "s/op",
    "witness.schmidt2.calls": "count/op",
    "serialize.read_s": "s/op",
    "serialize.dump_s": "s/op",
    "bipartite.validate_s": "s/op",
    "bipartite.partial_transpose.s": "s/op",
    "bipartite.partial_transpose.calls": "count/op",
    "bipartite.realign.s": "s/op",
    "linalg.numeric_rank.s": "s/op",
    "linalg.exact_rank.s": "s/op",
    "linalg.projector.s": "s/op",
    "linalg.svd.s": "s/op",
    "cli.self_s": "s/op",
    "catalog.build_s": "s",
    "catalog.get_s": "s",
    "process.cpu_per_op_s": "s/op",
    "trace.overhead_frac": "ratio",
    "trace.optimize_share": "ratio",
}


class Session:
    """Runs operations through ``cli.main`` and checks each one.

    The first report of every input is kept; a later report of the same input
    that differs by a byte is a failure, so repeats within a run, and traced
    against untraced runs, must agree exactly.
    """

    def __init__(self, cli, ops: tuple[workloads.Op, ...]) -> None:
        self.cli = cli
        self.ops = ops
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, op: workloads.Op, phase: str) -> float:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 -- an escaping exception is a failed operation
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = self._verify(op, code, out.getvalue(), err.getvalue())
        if problems:
            self.failures.append({"phase": phase, "input": op.key, "exit": code, "problems": problems})
        return elapsed

    def _verify(self, op: workloads.Op, code, out: str, err: str) -> list[str]:
        problems = []
        if code != op.expected_exit:
            problems.append(f"exit {code}, expected {op.expected_exit}")
        if "Traceback" in err:
            problems.append("traceback on stderr")
        if problems or op.check is None:
            return problems
        if out != self.reference.setdefault(op.key, out):
            problems.append("report bytes differ from the first report of this input")
        try:
            return problems + op.check(json.loads(out))
        except ValueError:
            return problems + ["stdout is not a JSON report"]
        except (KeyError, TypeError, AttributeError) as exc:
            return problems + [f"report is missing or misshapes {exc}"]

    def _loop(self, seconds: float):
        """Yield (index, op) in a closed loop for ``seconds``, ending on a whole pass over the ops."""
        n = len(self.ops)
        start = time.perf_counter()
        i = 0
        while i < max(2, n) or i % n or time.perf_counter() - start < seconds:
            yield i, self.ops[i % n]
            i += 1

    def timed(self, seconds: float) -> tuple[list[float], float, float]:
        """Op wall times, elapsed wall time and process CPU time of an untraced closed loop."""
        cpu, start = time.process_time(), time.perf_counter()
        times = [self.run(op, "timed") for _, op in self._loop(seconds)]
        return times, time.perf_counter() - start, time.process_time() - cpu

    def paired(self, seconds: float, tracer: tracing.Tracer) -> tuple[list[float], list[float], float]:
        """Run every op twice, untraced and traced, alternating which goes first.

        Pairing keeps the overhead estimate free of drift in machine speed
        over the run. Returns untraced times, traced times and the process
        CPU time of the untraced runs.
        """
        plain: list[float] = []
        traced: list[float] = []
        cpu = 0.0
        for i, op in self._loop(seconds):
            for use_trace in (i % 2 == 1, i % 2 == 0):
                if use_trace:
                    with tracing.traced(tracer), tracer.operation(i):
                        traced.append(self.run(op, "traced"))
                else:
                    c0 = time.process_time()
                    plain.append(self.run(op, "untraced"))
                    cpu += time.process_time() - c0
        return plain, traced, cpu


def setup_seconds() -> float:
    """Median wall time, in fresh interpreters, of importing pptedge and building the catalog."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True, timeout=120, capture_output=True, text=True
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).parent
    for lib in sorted(glob.glob(str(libdir.parent / "numpy.libs" / "*openblas*")) + glob.glob(str(libdir / ".libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def catalog_probe() -> tuple[float, float]:
    """Median traced times of ``catalog.entries()`` and of ``catalog.get(name)``."""
    from pptedge import catalog

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for _ in range(CATALOG_PROBES):
            catalog.entries()
            for name in catalog.CATALOG_NAMES:
                catalog.get(name)
    top = [s for s in tracer.spans if s[3] < 0]
    build = [s[2] - s[1] for s in top if s[0] == "catalog.entries"]
    get = [s[2] - s[1] for s in top if s[0] == "catalog.get"]
    return statistics.median(build), statistics.median(get)


def load_cli():
    """Import ``pptedge.cli`` from this checkout's ``src``; None when the source is absent."""
    if not (SRC / "pptedge" / "__init__.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pptedge import cli

    return cli


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    if cli is None:
        print(f"error: the program source {SRC / 'pptedge'} is missing; run from a repository checkout", file=sys.stderr)
        return 2
    outdir = OUT / f"{args.workload}-seed{args.seed}"
    ops = workloads.build(args.workload, args.seed, outdir / "inputs")
    env = environment()
    session = Session(cli, ops)
    session.run(ops[0], "warmup")
    extra: dict[str, tuple[float, str]] = {}

    if args.trace == 0:
        setup = setup_seconds()
        times, elapsed, cpu = session.timed(args.seconds)
        n = len(ops)
        values = {
            "setup_s": setup,
            "inputs_p90_s": sum(sorted(times[k::n])[int(0.9 * len(times[k::n]))] for k in range(n)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _metric_block(values, END_TO_END_UNITS)
        extra["ops_per_s"] = (len(times) / elapsed, "1/s")
        extra["passes"] = (len(times) // n, "count")
        extra["op_p50_s"] = (statistics.median(times), "s")
        if len(times) >= P90_MIN_SAMPLES:
            extra["op_p90_s"] = (statistics.quantiles(times, n=10)[8], "s")
        extra["cpu_per_op_s"] = (cpu / len(times), "s/op")
    else:
        build_s, get_s = catalog_probe()
        tracer = tracing.Tracer()
        plain, times, cpu = session.paired(args.seconds / 2, tracer)
        values = tracing.layer_metrics(tracer, len(times))
        values["catalog.build_s"] = build_s
        values["catalog.get_s"] = get_s
        values["process.cpu_per_op_s"] = cpu / len(plain)
        values["trace.overhead_frac"] = statistics.median(times) / statistics.median(plain) - 1.0
        metrics = _metric_block(values, PER_LAYER_UNITS)
        extra["untraced_op_p50_s"] = (statistics.median(plain), "s")
        tracer.write(outdir / "spans.jsonl")

    extra["samples"] = (len(times), "count")
    extra["failed_frac"] = (len(session.failures) / session.attempted, "ratio")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "failures": session.failures, "result": result, "op_times_s": times}
    (outdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"metric {args.workload} {name} {value!r} {unit}")
    for failure in session.failures:
        print(f"FAILED {json.dumps(failure)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
