"""The exact key set of every report block the command line writes.

Each JSON report is built in one place, the command line; these sets pin the
format it writes, block by block, so moving or renaming a field anywhere shows
here first.
"""

import json

import numpy as np
import pytest

from pptedge.bipartite import BipartiteOperator
from pptedge.cli import main
from pptedge.serialize import write_matrix_file

FAST = ["--restarts", "25", "--max-iter", "250"]

TOLERANCES = {"conv_tol", "eig_rel_tol", "psd_tol", "realignment_slack"}
CRITERION = {"criterion", "evidence", "tolerance", "verdict"}
REPORT = {"edge", "ppt", "ranks", "realignment", "seed", "state", "tolerances", "tool_version", "witnesses"}
EDGE = {"minimum", "residual_pt_range", "residual_range", "verdict"}
SEE_SAW = {"all_converged", "iterations_max", "restart_max", "restart_median", "restart_min", "restarts_run"}
WITNESS_SUMMARY = {"method", "schmidt2_best_value", "source", "trace_with_state"}
WITNESS_METADATA = {"method", "source", "trace_with_state"}
KERNEL = {"epsilon", "normalization"}
SHIFT = {"base_method", "eps_shift"}


def _json(capsys, argv) -> dict:
    rc = main([*argv, *FAST])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def test_analyze_edge_state_report_blocks(capsys):
    report = _json(capsys, ["analyze", "rho_5_5"])
    assert set(report) == REPORT
    assert set(report["tolerances"]) == TOLERANCES
    assert set(report["ranks"]) == {"exact_pt_rank", "exact_rank", "pt_rank", "rank"}
    assert set(report["ppt"]) == CRITERION
    assert set(report["realignment"]) == CRITERION
    assert set(report["edge"]) == EDGE | SEE_SAW | {"state"}
    assert set(report["witnesses"]) == {"kernel", "normalized_distance", "realign"}
    assert set(report["witnesses"]["kernel"]) == WITNESS_SUMMARY | KERNEL
    assert set(report["witnesses"]["realign"]) == WITNESS_SUMMARY


def test_analyze_full_rank_report_blocks(capsys):
    report = _json(capsys, ["analyze", "max_mixed"])
    assert set(report) == REPORT
    assert set(report["edge"]) == EDGE | {"state"}
    assert set(report["witnesses"]) == {"kernel", "realign"}
    assert set(report["witnesses"]["kernel"]) == {"skipped"}
    assert set(report["witnesses"]["realign"]) == {"skipped"}


def test_analyze_npt_file_report_blocks(tmp_path, capsys):
    v = np.eye(9)[0] + np.eye(9)[4]
    path = tmp_path / "npt.json"
    write_matrix_file(path, BipartiteOperator(np.outer(v, v) / 2, 3, 3))
    report = _json(capsys, ["analyze", str(path)])
    assert set(report) == REPORT
    assert set(report["ranks"]) == {"pt_rank", "rank"}
    assert set(report["ppt"]) == CRITERION
    assert set(report["realignment"]) == CRITERION
    assert set(report["edge"]) == {"skipped"}
    assert set(report["witnesses"]) == {"skipped"}


@pytest.mark.parametrize("name,see_saw", [("rho_5_5", True), ("separable_sample", False)])
def test_certify_edge_report_blocks(capsys, name, see_saw):
    payload = _json(capsys, ["certify-edge", name])
    assert set(payload) == EDGE | (SEE_SAW if see_saw else set()) | {"argmin", "seed", "state", "tolerances"}
    assert set(payload["argmin"]) == {"a", "b"}
    assert set(payload["tolerances"]) == TOLERANCES


@pytest.mark.parametrize("method", ["kernel", "realign"])
@pytest.mark.parametrize("shift", [[], ["--shift"]], ids=["plain", "shifted"])
def test_witness_metadata_block(capsys, method, shift):
    payload = _json(capsys, ["witness", "rho_5_5", "--method", method, *shift])
    assert set(payload) == {"dims", "matrix", "metadata"}
    expected = WITNESS_METADATA | (KERNEL if method == "kernel" else set()) | (SHIFT if shift else set())
    assert set(payload["metadata"]) == expected


def test_schmidt2_report_block(tmp_path, capsys):
    path = tmp_path / "w2.json"
    assert main(["witness", "rho_5_5", "--method", "realign", *FAST, "--out", str(path)]) == 0
    capsys.readouterr()
    payload = _json(capsys, ["schmidt2", str(path)])
    assert set(payload) == {
        "best_index",
        "best_value",
        "converged",
        "iterations_used",
        "restart_values",
        "schmidt_coefficients",
        "seed",
    }
