"""Seeded inputs and output checks for the benchmark workloads.

Every workload is a list of :class:`Op`: one ``pptedge`` command line plus a
check of its exit code and report. Inputs are a pure function of the
workload seed; matrix files are written with this module's own JSON writer
(the documented ``{"dims", "matrix"}`` format), and the expected verdicts of
generated states come from this module's own numpy partial transpose and
realignment, never from the library under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Reference values copied from tests/conftest.py (TRACE_NORM_*, EDGE_MIN_*,
# EPS_*), checked with the tolerances the tests pin them to: realigned trace
# norm within 1e-9 absolute (test_acceptance criterion 4), edge minimum within
# 20% relative (criterion 6), kernel epsilon within 1e-6 relative
# (test_witness.test_kernel_witness_detects_source).
TRACE_NORM = {"rho_5_5": 1.0127220255579656, "rho_6_6": 1.0117527157614901}
EDGE_MIN = {"rho_5_5": 6.2954365439797785e-3, "rho_6_6": 2.0611481564405099e-3}
EPS = {"rho_5_5": 7.8692957358340268e-4, "rho_6_6": 3.4352469274473717e-4}
EDGE_RANK = {"rho_5_5": 5, "rho_6_6": 6}
TRACE_NORM_ATOL = 1e-9
EDGE_MIN_RTOL = 0.2
EPS_RTOL = 1e-6

# Each workload is one pass of ops; the timed loop ends only on a whole pass,
# so every run sees the same mix.
#
# screen-files: one stream of SCREEN_MIX files per seed. Cheap files are two
# thirds of the stream, so op_p50_s sits in the cheap class and op_p90_s in
# the full-rank PPT class.
SCREEN_MIX = {"npt": 24, "ppt_full": 16, "malformed": 4, "not_psd": 4}
# analyze-separable: SEPARABLE_PER_RANK mixtures per rank, drawn once from
# SEPARABLE_CORPUS_SEED; the workload seed turns each by its own random local
# unitary U (x) V. That changes every file and every product vector, but keeps
# ranks, PPT, separability and the shape of the see-saw landscape, whose
# convergence time otherwise varies by 5x between mixtures of one rank and
# would swamp any change in the program.
SEPARABLE_RANKS = (4, 5, 6, 7)
SEPARABLE_PER_RANK = 2
SEPARABLE_CORPUS_SEED = 20060302

# Generated states keep their expected verdicts this far from the program's
# decision thresholds (1e-12 for PSD/PPT, 1e-9 relative for ranks), so the
# expectation is unambiguous.
MARGIN = 1e-4
RANK_GAP = 1e-6

EXIT_OK, EXIT_PARSE, EXIT_INVALID_STATE = 0, 2, 3

# A check gets the parsed report of an op that exited 0 as expected and
# returns its problems; ops expected to fail have only their exit code checked.
Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``key`` names its input, repeats of a key must print identical bytes."""

    key: str
    argv: tuple[str, ...]
    expected_exit: int
    check: Check | None = None


def partial_transpose(m: np.ndarray) -> np.ndarray:
    return m.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)


def realigned_trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9), compute_uv=False).sum())


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    g = rng.standard_normal((9, rank)) + 1j * rng.standard_normal((9, rank))
    rho = _hermitize(g @ g.conj().T)
    return rho / np.trace(rho).real


def _has_rank(m: np.ndarray, rank: int) -> bool:
    w = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return w[rank - 1] > RANK_GAP * w[0] and (rank == 9 or w[rank] < 1e-12 * w[0])


def _payload(m: np.ndarray) -> dict:
    return {"dims": [3, 3], "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload) + "\n")


# --- report checks ---------------------------------------------------------


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _edge_state_check(name: str) -> Check:
    def check(report: dict) -> list[str]:
        p: list[str] = []
        r = EDGE_RANK[name]
        ranks = report["ranks"]
        _expect(p, report["state"] == name, f"state {report['state']!r}")
        _expect(p, (ranks["exact_rank"], ranks["exact_pt_rank"]) == (r, r), f"exact ranks {ranks}")
        _expect(p, (ranks["rank"], ranks["pt_rank"]) == (r, r), f"ranks {ranks}")
        _expect(p, report["ppt"]["verdict"] == "pass", f"ppt {report['ppt']['verdict']}")
        tn = report["realignment"]["evidence"]
        _expect(p, abs(tn - TRACE_NORM[name]) <= TRACE_NORM_ATOL, f"realignment evidence {tn!r}")
        edge = report["edge"]
        _expect(p, edge.get("verdict") == "edge (heuristic)", f"edge verdict {edge.get('verdict')!r}")
        m = edge.get("minimum", float("nan"))
        _expect(p, abs(m - EDGE_MIN[name]) <= EDGE_MIN_RTOL * EDGE_MIN[name], f"edge minimum {m!r}")
        wit = report["witnesses"]
        eps = wit.get("kernel", {}).get("epsilon", float("nan"))
        _expect(p, abs(eps - EPS[name]) <= EPS_RTOL * EPS[name], f"kernel epsilon {eps!r}")
        for method in ("kernel", "realign"):
            v = wit.get(method, {}).get("schmidt2_best_value", float("nan"))
            _expect(p, v < 0.0, f"{method} schmidt2_best_value {v!r} not negative")
        return p

    return check


def _screen_check(kind: str, rank: int, ppt: str) -> Check:
    def check(report: dict) -> list[str]:
        p: list[str] = []
        _expect(p, report["ppt"]["verdict"] == ppt, f"ppt {report['ppt']['verdict']} (numpy PT says {ppt})")
        _expect(p, report["ranks"]["rank"] == rank, f"rank {report['ranks']['rank']} != {rank}")
        if kind == "ppt_full":
            _expect(p, report["edge"].get("verdict") == "not edge", f"edge {report['edge']}")
        else:
            _expect(p, "skipped" in report["edge"], f"edge {report['edge']}")
        return p

    return check


def _separable_check(rank: int) -> Check:
    def check(report: dict) -> list[str]:
        p: list[str] = []
        ranks = report["ranks"]
        _expect(p, (ranks["rank"], ranks["pt_rank"]) == (rank, rank), f"ranks {ranks} != ({rank},{rank})")
        _expect(p, report["ppt"]["verdict"] == "pass", f"ppt {report['ppt']['verdict']}")
        _expect(p, report["realignment"]["verdict"] == "pass", f"realignment {report['realignment']['verdict']}")
        _expect(p, report["edge"].get("verdict") == "not edge", f"edge verdict {report['edge'].get('verdict')!r}")
        return p

    return check


# --- generators --------------------------------------------------------------


def _npt_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    while True:
        rho = _random_state(rng, rank)
        if np.linalg.eigvalsh(partial_transpose(rho))[0] < -MARGIN and _has_rank(rho, rank):
            return rho


def _ppt_full_state(rng: np.random.Generator) -> np.ndarray:
    """A random state under heavy white noise: full rank, PPT and realignment-passing with margin."""
    while True:
        sigma = _random_state(rng, int(rng.integers(1, 10)))
        noise = rng.uniform(0.85, 0.95)
        rho = (1.0 - noise) * sigma + noise * np.eye(9) / 9.0
        if np.linalg.eigvalsh(partial_transpose(rho))[0] > MARGIN and realigned_trace_norm(rho) < 1.0 - MARGIN:
            return rho


def _not_psd_operator(rng: np.random.Generator) -> np.ndarray:
    """Hermitian, unit trace, one clearly negative eigenvalue."""
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    w = rng.uniform(0.1, 1.0, 9)
    w[0] = -rng.uniform(0.05, 0.2)
    w[1:] *= (1.0 - w[0]) / w[1:].sum()
    return _hermitize((q * w) @ q.conj().T)


def _malformed_payload(rng: np.random.Generator) -> str:
    """Text of a matrix file the reader must reject (exit 2); the defect kind is seeded."""
    payload = _payload(_random_state(rng, 9))
    kind = int(rng.integers(4))
    if kind == 0:
        text = json.dumps(payload)
        return text[: len(text) // 2]
    if kind == 1:
        payload["matrix"] = payload["matrix"][:-1]
    elif kind == 2:
        payload["matrix"][int(rng.integers(9))][int(rng.integers(9))][0] = float("nan")
    else:
        payload["dims"] = [3, 2]
    return json.dumps(payload)


def _separable_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    while True:
        weights = rng.uniform(0.5, 1.5, rank)
        rho = np.zeros((9, 9), dtype=complex)
        for w in weights / weights.sum():
            v = np.kron(_unit(rng, 3), _unit(rng, 3))
            rho += w * np.outer(v, v.conj())
        rho = _hermitize(rho)
        rho /= np.trace(rho).real
        if _has_rank(rho, rank) and _has_rank(partial_transpose(rho), rank):
            return rho


def _local_unitary(rng: np.random.Generator) -> np.ndarray:
    factors = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        factors.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return np.kron(*factors)


def _analyze(target: str, seed: int) -> tuple[str, ...]:
    return ("analyze", target, "--seed", str(seed))


def analyze_edge(seed: int, workdir: Path) -> tuple[Op, ...]:
    return tuple(Op(name, _analyze(name, seed), EXIT_OK, _edge_state_check(name)) for name in ("rho_5_5", "rho_6_6"))


def screen_files(seed: int, workdir: Path) -> tuple[Op, ...]:
    rng = np.random.default_rng([seed, 1])
    kinds = [k for k, n in SCREEN_MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    ops = []
    for i, kind in enumerate(kinds):
        path = workdir / f"screen-{i:02d}-{kind}.json"
        if kind == "npt":
            rank = int(rng.integers(1, 10))
            _write(path, _payload(_npt_state(rng, rank)))
            op = Op(path.name, _analyze(str(path), seed), EXIT_OK, _screen_check(kind, rank, "violated"))
        elif kind == "ppt_full":
            _write(path, _payload(_ppt_full_state(rng)))
            op = Op(path.name, _analyze(str(path), seed), EXIT_OK, _screen_check(kind, 9, "pass"))
        elif kind == "malformed":
            path.write_text(_malformed_payload(rng))
            op = Op(path.name, _analyze(str(path), seed), EXIT_PARSE)
        else:
            _write(path, _payload(_not_psd_operator(rng)))
            op = Op(path.name, _analyze(str(path), seed), EXIT_INVALID_STATE)
        ops.append(op)
    return tuple(ops)


def analyze_separable(seed: int, workdir: Path) -> tuple[Op, ...]:
    corpus = np.random.default_rng(SEPARABLE_CORPUS_SEED)
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(SEPARABLE_PER_RANK):
        for rank in SEPARABLE_RANKS:
            path = workdir / f"separable-{i}-r{rank}.json"
            u = _local_unitary(rng)
            rho = _hermitize(u @ _separable_state(corpus, rank) @ u.conj().T)
            _write(path, _payload(rho / np.trace(rho).real))
            ops.append(Op(path.name, _analyze(str(path), seed), EXIT_OK, _separable_check(rank)))
    return tuple(ops)


WORKLOADS = {"analyze-edge": analyze_edge, "screen-files": screen_files, "analyze-separable": analyze_separable}


def build(name: str, seed: int, workdir: Path) -> tuple[Op, ...]:
    """Generate the workload's inputs under ``workdir`` (emptied of old inputs first)."""
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.glob("*.json"):
        old.unlink()
    return WORKLOADS[name](seed, workdir)
