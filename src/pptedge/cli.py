"""Command-line front end.

Commands: ``catalog``, ``analyze``, ``witness``, ``certify-edge``,
``schmidt2``. Reports and matrix files are JSON; identical inputs with
identical flags produce byte-identical output.

Exit codes: 0 success, 2 parse failure, 3 invalid state, 4 method not
applicable, 5 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable

import numpy as np

from . import __version__, catalog, criteria, linalg, witness as witness_mod
from .bipartite import BipartiteOperator, partial_transpose, schmidt_coefficients, validate_density
from .exceptions import InvalidStateError, MatrixFileError, NotApplicableError, NotPSDError
from .optimize import SeeSawConfig, min_schmidt2_expectation
from .serialize import dumps_canonical, matrix_payload, read_matrix_file

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_STATE = 3
EXIT_NOT_APPLICABLE = 4
EXIT_INTERNAL = 5


def _bounded(kind: type, ok: Callable, what: str) -> Callable[[str], int | float]:
    """Argparse ``type=`` that parses ``kind`` and rejects values failing ``ok``, so argparse exits 2."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if (isinstance(value, float) and not math.isfinite(value)) or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_COUNT = _bounded(int, lambda x: x >= 1, "an integer >= 1")
_SEED = _bounded(int, lambda x: x >= 0, "an integer >= 0")
_POSITIVE = _bounded(float, lambda x: x > 0.0, "finite and > 0")
_NONNEGATIVE = _bounded(float, lambda x: x >= 0.0, "finite and >= 0")
_RELATIVE = _bounded(float, lambda x: 0.0 < x < 1.0, "finite and in (0, 1)")


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_SEED, default=42, help="optimizer seed (default 42)")
    common.add_argument("--restarts", type=_COUNT, default=200, help="see-saw restarts (default 200)")
    common.add_argument("--max-iter", type=_COUNT, default=500, help="see-saw sweeps per restart (default 500)")
    common.add_argument("--conv-tol", type=_POSITIVE, default=1e-12, help="see-saw convergence tolerance (default 1e-12)")
    common.add_argument("--tol-eig", type=_RELATIVE, default=1e-9, help="relative rank threshold (default 1e-9)")
    common.add_argument("--tol-pos", type=_NONNEGATIVE, default=1e-12, help="positivity tolerance (default 1e-12)")
    common.add_argument("--out", type=str, default=None, help="write JSON output to this path instead of stdout")
    return common


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="pptedge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pptedge {__version__}")
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", parents=[common], help="list built-in states")

    p = sub.add_parser("analyze", parents=[common], help="full analysis report for a state")
    p.add_argument("input", help="catalog name or matrix file path")

    p = sub.add_parser("witness", parents=[common], help="construct an entanglement witness")
    p.add_argument("input", help="catalog name or matrix file path")
    p.add_argument("--method", choices=("kernel", "realign"), required=True)
    p.add_argument(
        "--shift",
        type=_POSITIVE,
        nargs="?",
        const=1e-6,
        default=None,
        help="also subtract (Tr(W rho) + eps) * identity; eps defaults to 1e-6",
    )

    p = sub.add_parser("certify-edge", parents=[common], help="heuristic edge certification")
    p.add_argument("input", help="catalog name or matrix file path")

    p = sub.add_parser("schmidt2", parents=[common], help="minimize a witness over Schmidt-rank-2 states")
    p.add_argument("witness_file", help="matrix file holding a Hermitian operator")

    return parser


def _config(args: argparse.Namespace) -> SeeSawConfig:
    return SeeSawConfig(restarts=args.restarts, max_iter=args.max_iter, conv_tol=args.conv_tol, seed=args.seed)


def _load_state(name_or_path: str, psd_tol: float) -> catalog.CatalogEntry | BipartiteOperator:
    """Resolve a catalog name or read and validate a density-matrix file."""
    if name_or_path in catalog.CATALOG_NAMES:
        return catalog.get(name_or_path)
    op, _ = read_matrix_file(name_or_path)
    validate_density(op, psd_tol)
    return op


def _load_hermitian(path: str) -> BipartiteOperator:
    op, _ = read_matrix_file(path)
    if not op.is_hermitian():
        raise InvalidStateError("matrix file does not hold a Hermitian operator")
    return op


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerances(args: argparse.Namespace) -> dict:
    return {
        "eig_rel_tol": args.tol_eig,
        "psd_tol": args.tol_pos,
        "conv_tol": args.conv_tol,
        "realignment_slack": criteria.REALIGNMENT_SLACK,
    }


def _cmd_catalog(args: argparse.Namespace) -> int:
    lines = [f"{e.name:<18} ({e.expected_rank},{e.expected_pt_rank})" for e in catalog.entries()]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _spectral_rank(matrix, rel_tol: float) -> int:
    """Rank by eigenvalue magnitude; tolerates indefinite matrices (non-PPT partial transposes)."""
    w = np.abs(np.linalg.eigvalsh(matrix))
    return int(np.sum(w > rel_tol * w.max()))


def _rank_block(state, args: argparse.Namespace) -> dict:
    op, _ = catalog.operator_and_name(state)
    block = {
        "rank": _spectral_rank(op.matrix, args.tol_eig),
        "pt_rank": _spectral_rank(partial_transpose(op).matrix, args.tol_eig),
    }
    if isinstance(state, catalog.CatalogEntry) and state.exact is not None:
        block["exact_rank"] = linalg.exact_rank(state.exact)
        block["exact_pt_rank"] = linalg.exact_rank(state.exact_pt)
    return block


def _witness_summary(w: witness_mod.Witness, state, cfg: SeeSawConfig) -> dict:
    evidence = witness_mod.schmidt2_evidence(w, cfg)
    summary = dict(w.metadata())
    summary["trace_with_state"] = witness_mod.evaluate(w, state)
    summary["schmidt2_best_value"] = evidence.best_value
    return summary


def _cmd_analyze(args: argparse.Namespace) -> int:
    state = _load_state(args.input, args.tol_pos)
    _, name = catalog.operator_and_name(state, args.input)
    cfg = _config(args)
    ppt = criteria.is_ppt(state, args.tol_pos)
    report = {
        "state": name,
        "tool_version": __version__,
        "seed": args.seed,
        "tolerances": _tolerances(args),
        "ranks": _rank_block(state, args),
        "ppt": ppt.to_dict(),
        "realignment": criteria.realignment_criterion(state).to_dict(),
    }
    if ppt.verdict != "pass":
        reason = "state is not PPT; edge certification and witness constructions apply to PPT states"
        report["edge"] = {"skipped": reason}
        report["witnesses"] = {"skipped": reason}
        _emit(args, dumps_canonical(report))
        return EXIT_OK

    edge = criteria.certify_edge(state, cfg, rel_tol=args.tol_eig, ppt_tol=args.tol_pos)
    report["edge"] = edge.to_dict()
    summaries = {}
    try:
        w1 = witness_mod.kernel_witness(state, cfg, rel_tol=args.tol_eig, edge=edge)
        summaries["kernel"] = _witness_summary(w1, state, cfg)
    except NotApplicableError as exc:
        w1 = None
        summaries["kernel"] = {"skipped": str(exc)}
    try:
        w2 = witness_mod.realignment_witness(state)
        summaries["realign"] = _witness_summary(w2, state, cfg)
    except NotApplicableError as exc:
        w2 = None
        summaries["realign"] = {"skipped": str(exc)}
    if w1 is not None and w2 is not None:
        m1 = w1.operator.matrix / np.linalg.norm(w1.operator.matrix)
        m2 = w2.operator.matrix / np.linalg.norm(w2.operator.matrix)
        summaries["normalized_distance"] = float(np.linalg.norm(m1 - m2))
    report["witnesses"] = summaries
    _emit(args, dumps_canonical(report))
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    state = _load_state(args.input, args.tol_pos)
    cfg = _config(args)
    if args.method == "kernel":
        w = witness_mod.kernel_witness(state, cfg, rel_tol=args.tol_eig, ppt_tol=args.tol_pos)
    else:
        w = witness_mod.realignment_witness(state)
    if args.shift is not None:
        w = witness_mod.shift_witness(w, state, args.shift)
    value = witness_mod.evaluate(w, state)
    meta = w.metadata()
    meta["trace_with_state"] = value
    text = dumps_canonical(matrix_payload(w.operator, meta))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"Tr(W rho) = {value:.12e}\n")
    else:
        sys.stdout.write(text)
        sys.stderr.write(f"Tr(W rho) = {value:.12e}\n")
    return EXIT_OK


def _cmd_certify_edge(args: argparse.Namespace) -> int:
    state = _load_state(args.input, args.tol_pos)
    cert = criteria.certify_edge(state, _config(args), rel_tol=args.tol_eig, ppt_tol=args.tol_pos)
    payload = cert.to_dict()
    payload["seed"] = args.seed
    payload["tolerances"] = _tolerances(args)
    payload["argmin"] = {
        "a": [[float(x.real), float(x.imag)] for x in cert.argmin.a],
        "b": [[float(x.real), float(x.imag)] for x in cert.argmin.b],
    }
    _emit(args, dumps_canonical(payload))
    return EXIT_OK


def _cmd_schmidt2(args: argparse.Namespace) -> int:
    op = _load_hermitian(args.witness_file)
    result = min_schmidt2_expectation(op, _config(args))
    vec = result.argmin.vector
    payload = result.to_dict()
    payload["seed"] = args.seed
    payload["schmidt_coefficients"] = [float(x) for x in schmidt_coefficients(vec, op.dim_a, op.dim_b)]
    _emit(args, dumps_canonical(payload))
    return EXIT_OK


_COMMANDS = {
    "catalog": _cmd_catalog,
    "analyze": _cmd_analyze,
    "witness": _cmd_witness,
    "certify-edge": _cmd_certify_edge,
    "schmidt2": _cmd_schmidt2,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MatrixFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidStateError, NotPSDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except NotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except Exception as exc:  # noqa: BLE001 -- map anything else to the numerical-failure code
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())
