"""Command-line front end.

Commands: ``catalog``, ``analyze``, ``witness``, ``certify-edge``,
``schmidt2``. Reports and matrix files are JSON; identical inputs with
identical flags produce byte-identical output.

The library takes every state as a ``BipartiteOperator`` and names none;
this front end names each state by its input, the catalog name or the file
path as given, in the report's ``state``, the edge block's ``state`` and
each witness's ``source``. The library returns plain records, and every
report block is built here from their fields: the PPT and realignment
blocks, the edge block, the witness metadata (with the ``--shift`` fields)
and the Schmidt-rank-2 search.

Exit codes: 0 success, 2 parse failure, 3 invalid state, 4 method not
applicable, 5 internal numerical failure. ``analyze`` reports each part that
does not apply as ``{"skipped": reason}`` instead, and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from typing import Callable

import numpy as np

from . import __version__, catalog, criteria, witness as witness_mod
from .bipartite import BipartiteOperator, schmidt_coefficients, validate_density
from .exceptions import InvalidStateError, MatrixFileError, NotApplicableError
from .optimize import SeeSawConfig, min_schmidt2_expectation, min_schmidt2_expectations
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
    common.add_argument("--restarts", type=_COUNT, default=200, help="see-saw restart cap (default 200)")
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


def _load_state(name_or_path: str, psd_tol: float) -> tuple[BipartiteOperator, catalog.CatalogEntry | None]:
    """The state of a catalog name, with its entry, or of a validated density-matrix file, with None."""
    if name_or_path in catalog.CATALOG_NAMES:
        entry = catalog.get(name_or_path)
        return entry.state, entry
    op, _ = read_matrix_file(name_or_path)
    validate_density(op, psd_tol)
    return op, None


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
    lines = [
        f"{e.name:<18} ({e.state.spectrum.rank(args.tol_eig)},{e.state.pt.spectrum.rank(args.tol_eig)})"
        for e in catalog.entries()
    ]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _rank_block(op: BipartiteOperator, entry: catalog.CatalogEntry | None, args: argparse.Namespace) -> dict:
    block = {
        "rank": op.spectrum.rank(args.tol_eig),
        "pt_rank": op.pt.spectrum.rank(args.tol_eig),
    }
    if entry is not None:
        block["exact_rank"], block["exact_pt_rank"] = entry.exact_ranks
    return block


def _edge_block(cert: criteria.EdgeCertificate) -> dict:
    """The edge certificate's fields; the see-saw statistics, over the restarts that ran, only when a see-saw ran."""
    block = {
        "verdict": cert.verdict,
        "minimum": cert.minimum,
        "residual_range": cert.residual_range,
        "residual_pt_range": cert.residual_pt_range,
    }
    if cert.opt is not None:
        values = cert.opt.restart_values
        # np.median's arithmetic without its numpy.ma import: the middle value, or the mean of the two middle ones
        middle = np.sort(values)[(len(values) - 1) // 2 : len(values) // 2 + 1]
        block.update(
            restarts_run=len(values),
            restart_min=float(np.min(values)),
            restart_median=float(np.mean(middle)),
            restart_max=float(np.max(values)),
            iterations_max=int(np.max(cert.opt.iterations_used)),
            all_converged=bool(np.all(cert.opt.converged)),
        )
    return block


def _witness_metadata(w: witness_mod.Witness, value: float, args: argparse.Namespace) -> dict:
    """How ``w`` was built, its source and ``value`` = Tr(W rho): the witness fields of ``analyze`` and ``witness``."""
    meta = {"method": w.method, "source": args.input, "trace_with_state": value}
    if w.epsilon is not None:
        meta["epsilon"] = w.epsilon
    if w.normalization is not None:
        meta["normalization"] = w.normalization
    return meta


def _or_skipped(build: Callable, **kept):
    """``build()``, or ``{"skipped": reason, **kept}`` when it does not apply: how ``analyze`` reports such a part."""
    try:
        return build()
    except NotApplicableError as exc:
        return {"skipped": str(exc), **kept}


def _witness_summary(w: witness_mod.Witness, op: BipartiteOperator, args: argparse.Namespace) -> dict:
    """The witness's metadata, and a skip when Tr(W rho) >= 0: then no Schmidt-rank-2 search runs for it."""
    value = witness_mod.evaluate(w.operator, op)
    meta = _witness_metadata(w, value, args)
    if value >= 0:
        reason = f"Tr(W rho) = {value:.6e} >= 0 at --tol-eig {args.tol_eig:g}: the witness does not detect the state"
        return {"skipped": reason, **meta}
    return meta


def _cmd_analyze(args: argparse.Namespace) -> int:
    op, entry = _load_state(args.input, args.tol_pos)
    ppt = criteria.is_ppt(op, args.tol_pos)
    report = {
        "state": args.input,
        "tool_version": __version__,
        "seed": args.seed,
        "tolerances": _tolerances(args),
        "ranks": _rank_block(op, entry, args),
        "ppt": dataclasses.asdict(ppt),
        "realignment": _or_skipped(lambda: dataclasses.asdict(criteria.realignment_criterion(op))),
    }
    if ppt.verdict != "pass":
        reason = "state is not PPT; edge certification and witness constructions apply to PPT states"
        report["edge"] = {"skipped": reason}
        report["witnesses"] = {"skipped": reason}
        _emit(args, dumps_canonical(report))
        return EXIT_OK

    edge = criteria.certify_edge(op, _config(args), rel_tol=args.tol_eig, ppt_tol=args.tol_pos)
    report["edge"] = {"state": args.input, **_edge_block(edge)}
    built = {
        "kernel": _or_skipped(lambda: witness_mod.kernel_witness(edge)),
        "realign": _or_skipped(lambda: witness_mod.realignment_witness(op)),
    }
    # a witness that was not built is already its skip
    summaries = {name: w if isinstance(w, dict) else _witness_summary(w, op, args) for name, w in built.items()}
    # one Schmidt-rank-2 search covers every witness that detects the state
    detecting = [name for name, summary in summaries.items() if "skipped" not in summary]
    operators = tuple(built[name].operator for name in detecting)
    found = _or_skipped(lambda: min_schmidt2_expectations(operators, _config(args))) if operators else ()
    for i, name in enumerate(detecting):
        summaries[name].update(found if isinstance(found, dict) else {"schmidt2_best_value": found[i].best_value})
    if not any("skipped" in summary for summary in summaries.values()):
        m1, m2 = (w.operator.matrix / np.linalg.norm(w.operator.matrix) for w in built.values())
        summaries["normalized_distance"] = float(np.linalg.norm(m1 - m2))
    report["witnesses"] = summaries
    _emit(args, dumps_canonical(report))
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    op, _ = _load_state(args.input, args.tol_pos)
    if args.method == "kernel":
        edge = criteria.certify_edge(op, _config(args), rel_tol=args.tol_eig, ppt_tol=args.tol_pos)
        w = witness_mod.kernel_witness(edge)
    else:
        w = witness_mod.realignment_witness(op)
    operator = w.operator
    if args.shift is not None:
        operator = witness_mod.shift_witness(operator, op, args.shift)
    value = witness_mod.evaluate(operator, op)
    meta = _witness_metadata(w, value, args)
    if args.shift is not None:
        meta.update(method="shifted", base_method=w.method, eps_shift=args.shift)
    _emit(args, dumps_canonical(matrix_payload(operator, meta)))
    # the value goes beside the payload: to stdout when the payload went to a file
    (sys.stdout if args.out else sys.stderr).write(f"Tr(W rho) = {value:.12e}\n")
    return EXIT_OK


def _cmd_certify_edge(args: argparse.Namespace) -> int:
    op, _ = _load_state(args.input, args.tol_pos)
    cert = criteria.certify_edge(op, _config(args), rel_tol=args.tol_eig, ppt_tol=args.tol_pos)
    payload = _edge_block(cert)
    payload["state"] = args.input
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
    payload = {
        "best_value": result.best_value,
        "best_index": result.best_index,
        "restart_values": result.restart_values.tolist(),
        "iterations_used": result.iterations_used.tolist(),
        "converged": result.converged.tolist(),
        "seed": args.seed,
        "schmidt_coefficients": schmidt_coefficients(result.argmin.vector, op.dim_a, op.dim_b).tolist(),
    }
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
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidStateError as exc:
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
