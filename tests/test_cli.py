import json
import sys

import numpy as np
import pytest

import helpers
from conftest import TRACE_NORM_6_6
from pptedge import criteria, optimize
from pptedge.bipartite import BipartiteOperator
from pptedge.cli import main
from pptedge.serialize import write_matrix_file

FAST = ["--restarts", "25", "--max-iter", "250"]


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "rho_5_5            (5,5)" in out
    assert "rho_6_6            (6,6)" in out
    assert "max_mixed          (9,9)" in out


def test_analyze_rho_5_5(capsys):
    report = _run_json(capsys, ["analyze", "rho_5_5", *FAST])
    assert report["state"] == "rho_5_5"
    assert report["ranks"] == {"rank": 5, "pt_rank": 5, "exact_rank": 5, "exact_pt_rank": 5}
    assert report["ppt"]["verdict"] == "pass"
    assert report["realignment"]["verdict"] == "violated"
    assert report["edge"]["verdict"] == "edge (heuristic)"
    kernel = report["witnesses"]["kernel"]
    assert kernel["epsilon"] > 0.0
    assert kernel["trace_with_state"] < 0.0
    assert kernel["schmidt2_best_value"] < 0.0
    realign = report["witnesses"]["realign"]
    assert realign["trace_with_state"] < 0.0
    assert realign["schmidt2_best_value"] < 0.0
    assert report["witnesses"]["normalized_distance"] > 0.0
    assert report["seed"] == 42
    assert report["tolerances"]["eig_rel_tol"] == 1e-9


def test_analyze_max_mixed_skips_witnesses(capsys):
    report = _run_json(capsys, ["analyze", "max_mixed", *FAST])
    assert report["edge"]["verdict"] == "not edge"
    assert "skipped" in report["witnesses"]["kernel"]
    assert "skipped" in report["witnesses"]["realign"]
    assert abs(report["realignment"]["evidence"] - 1.0 / 3.0) < 1e-12


def test_analyze_non_ppt_file_skips_witness_stage(tmp_path, capsys):
    v = helpers.max_entangled_vector(3)
    path = tmp_path / "ent.json"
    write_matrix_file(path, BipartiteOperator(np.outer(v, v.conj()), 3, 3))
    report = _run_json(capsys, ["analyze", str(path), *FAST])
    assert report["ppt"]["verdict"] == "violated"
    assert "skipped" in report["edge"]
    assert "skipped" in report["witnesses"]


def test_analyze_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["analyze", "rho_6_6", *FAST, "--out", str(first)]) == 0
    assert main(["analyze", "rho_6_6", *FAST, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["analyze", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()


def test_analyze_invalid_state_exit_3(tmp_path, capsys):
    mat = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0, 0]).astype(complex)
    path = tmp_path / "indefinite.json"
    write_matrix_file(path, BipartiteOperator(mat, 3, 3))
    assert main(["analyze", str(path)]) == 3
    capsys.readouterr()


def test_witness_kernel_writes_file_and_prints_value(tmp_path, capsys):
    out = tmp_path / "w1.json"
    rc = main(["witness", "rho_5_5", "--method", "kernel", *FAST, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Tr(W rho) = -" in captured.out
    payload = json.loads(out.read_text())
    assert payload["dims"] == [3, 3]
    assert payload["metadata"]["method"] == "kernel"
    assert payload["metadata"]["normalization"] == 0.125
    assert payload["metadata"]["epsilon"] > 0.0


def test_witness_realign_value_matches_trace_norm(tmp_path):
    out = tmp_path / "w2.json"
    assert main(["witness", "rho_6_6", "--method", "realign", *FAST, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["metadata"]["trace_with_state"] - (1.0 - TRACE_NORM_6_6)) < 1e-9


def test_witness_shift_flag(tmp_path):
    out = tmp_path / "w1s.json"
    rc = main(["witness", "rho_5_5", "--method", "kernel", "--shift", "1e-3", *FAST, "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["method"] == "shifted"
    assert payload["metadata"]["base_method"] == "kernel"
    assert abs(payload["metadata"]["trace_with_state"] + 1e-3) < 1e-12


def test_witness_inapplicable_exit_4(capsys):
    assert main(["witness", "max_mixed", "--method", "realign"]) == 4
    assert main(["witness", "max_mixed", "--method", "kernel"]) == 4
    capsys.readouterr()


def test_witness_kernel_non_ppt_exit_4(capsys):
    assert main(["witness", "max_entangled", "--method", "kernel"]) == 4
    assert "PPT" in capsys.readouterr().err


def _count_calls(monkeypatch, name: str) -> list:
    """Replace every pptedge binding of function ``name`` by a wrapper that records its calls."""
    original = getattr(optimize, name, None) or getattr(criteria, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("pptedge") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_witness_kernel_full_rank_runs_no_see_saw(monkeypatch, capsys):
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    assert main(["witness", "max_mixed", "--method", "kernel"]) == 4
    assert see_saws == []
    capsys.readouterr()


@pytest.mark.parametrize("name", ["rho_5_5", "rho_6_6"])
def test_analyze_runs_edge_see_saw_and_projectors_once(monkeypatch, capsys, name):
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    projectors = _count_calls(monkeypatch, "range_projectors")
    report = _run_json(capsys, ["analyze", name, *FAST])
    assert len(see_saws) == 1
    assert len(projectors) == 1
    kernel = report["witnesses"]["kernel"]
    assert kernel["epsilon"] == kernel["normalization"] * report["edge"]["minimum"]


def test_certify_edge_cli(capsys):
    payload = _run_json(capsys, ["certify-edge", "separable_sample", *FAST])
    assert payload["verdict"] == "not edge"
    assert payload["minimum"] < 1e-10
    assert "argmin" in payload and len(payload["argmin"]["a"]) == 3


def test_certify_edge_cli_catalog_state(capsys):
    payload = _run_json(capsys, ["certify-edge", "rho_6_6", *FAST])
    assert payload["verdict"] == "edge (heuristic)"
    assert payload["minimum"] > 1e-6
    assert payload["seed"] == 42


def test_certify_edge_non_ppt_exit_4(capsys):
    assert main(["certify-edge", "max_entangled"]) == 4
    capsys.readouterr()


def test_schmidt2_cli_on_witness_file(tmp_path, capsys):
    wfile = tmp_path / "w1.json"
    assert main(["witness", "rho_5_5", "--method", "kernel", *FAST, "--out", str(wfile)]) == 0
    capsys.readouterr()
    payload = _run_json(capsys, ["schmidt2", str(wfile), *FAST])
    assert payload["best_value"] < 0.0
    coeffs = payload["schmidt_coefficients"]
    assert len(coeffs) == 3
    assert coeffs[2] < 1e-8


def test_schmidt2_cli_on_shifted_witness_file(tmp_path, capsys):
    wfile = tmp_path / "w2s.json"
    rc = main(["witness", "rho_6_6", "--method", "realign", "--shift", *FAST, "--out", str(wfile)])
    assert rc == 0
    capsys.readouterr()
    payload = _run_json(capsys, ["schmidt2", str(wfile), *FAST])
    assert payload["best_value"] < 0.0


def test_schmidt2_cli_identity(tmp_path, capsys):
    path = tmp_path / "eye.json"
    write_matrix_file(path, BipartiteOperator(np.eye(9), 3, 3))
    payload = _run_json(capsys, ["schmidt2", str(path), *FAST])
    assert abs(payload["best_value"] - 1.0) < 1e-12


def test_schmidt2_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["schmidt2", str(bad)]) == 2
    capsys.readouterr()


def test_unknown_catalog_name_is_parse_error(capsys):
    assert main(["analyze", "rho_9_9"]) == 2
    capsys.readouterr()
