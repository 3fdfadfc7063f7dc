import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from conftest import EDGE_MIN_5_5, TRACE_NORM_6_6
from pptedge import catalog, cli, criteria, linalg, optimize
from pptedge.bipartite import BipartiteOperator
from pptedge.cli import main
from pptedge.serialize import write_matrix_file

FAST = ["--restarts", "25", "--max-iter", "250"]


def _run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_every_seesaw_config_field_is_set_by_the_cli():
    # a field that no flag reaches could be set only by tests
    args = cli._build_parser().parse_args(
        ["certify-edge", "rho_5_5", "--seed", "7", "--restarts", "3", "--max-iter", "9", "--conv-tol", "1e-10"]
    )
    cfg, default = cli._config(args), optimize.SeeSawConfig()
    for field in dataclasses.fields(optimize.SeeSawConfig):
        assert getattr(cfg, field.name) != getattr(default, field.name), field.name


_CATALOG_LISTING = """\
rho_5_5            (5,5)
rho_6_6            (6,6)
max_mixed          (9,9)
max_entangled      (1,9)
separable_sample   (9,9)
"""


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out == _CATALOG_LISTING


def test_catalog_listing_reads_ranks_at_tol_eig(capsys):
    # the listed ranks come from each state's spectrum, by the same rule as analyze's
    assert main(["catalog", "--tol-eig", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "rho_5_5            (3,3)\n" in out
    assert "rho_6_6            (4,4)\n" in out


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


def test_analyze_seeds_draw_different_minima(capsys):
    edges = [_run_json(capsys, ["analyze", "rho_5_5", "--seed", str(seed)])["edge"] for seed in (1, 2)]
    minima = [edge["minimum"] for edge in edges]
    assert json.dumps(minima[0]) != json.dumps(minima[1])
    assert all(abs(m - EDGE_MIN_5_5) < 0.2 * EDGE_MIN_5_5 for m in minima)
    assert all(edge["restarts_run"] < 200 for edge in edges)


def test_analyze_takes_a_seed_beyond_64_bits(capsys):
    report = _run_json(capsys, ["analyze", "rho_5_5", "--seed", str(10**23)])
    assert report["seed"] == 10**23
    assert report["edge"]["verdict"] == "edge (heuristic)"
    assert abs(report["edge"]["minimum"] - EDGE_MIN_5_5) < 1e-6 * EDGE_MIN_5_5


def test_restart_median_is_np_median_bit_for_bit():
    # the edge block takes the median by a sort, not by np.median, on odd and even numbers of restarts
    cert = criteria.certify_edge(catalog.get("rho_5_5").state, optimize.SeeSawConfig(restarts=25))
    rng = np.random.default_rng(26)
    for n in [*range(1, 60), 200]:
        for scale in (1e-14, 1e-3, 1e2):
            values = scale * rng.standard_normal(n)
            block = cli._edge_block(dataclasses.replace(cert, opt=dataclasses.replace(cert.opt, restart_values=values)))
            assert block["restart_median"].hex() == float(np.median(values)).hex(), (n, scale)


def test_a_fresh_analyze_imports_neither_numpy_random_nor_numpy_ma():
    # the starts are plain uint64 arithmetic, the restart median a sort and the exact ranks integer elimination;
    # -X importtime lists every module imported
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-X", "importtime", "-m", "pptedge", "analyze", "rho_5_5"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "numpy.linalg" in imported and json.loads(done.stdout)["edge"]["restarts_run"] == 25
    assert not {"numpy.random", "numpy.ma", "fractions", "decimal"} & imported


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


def test_out_to_a_directory_exit_2(tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == 2
    assert "internal" not in capsys.readouterr().err


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


def _count_projector_calls(monkeypatch) -> list:
    """Wrap ``Spectrum.range_projector`` so each call records the spectrum it was read from."""
    original = linalg.Spectrum.range_projector
    spectra: list = []

    def counted(self, *args, **kwargs):
        spectra.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Spectrum, "range_projector", counted)
    return spectra


def _one_projector_per_spectrum(spectra: list, state: BipartiteOperator) -> bool:
    return len(spectra) == 2 and spectra[0] is state.spectrum and spectra[1] is state.pt.spectrum


def test_witness_kernel_full_rank_runs_no_see_saw(monkeypatch, capsys):
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    assert main(["witness", "max_mixed", "--method", "kernel"]) == 4
    assert see_saws == []
    capsys.readouterr()


def test_witness_kernel_gates_ppt_and_builds_projectors_once(monkeypatch, capsys):
    ppt_gates = _count_calls(monkeypatch, "is_ppt")
    projectors = _count_projector_calls(monkeypatch)
    payload = _run_json(capsys, ["witness", "rho_5_5", "--method", "kernel", *FAST])
    assert len(ppt_gates) == 1
    assert _one_projector_per_spectrum(projectors, catalog.get("rho_5_5").state)
    assert payload["metadata"]["normalization"] == 0.125


@pytest.mark.parametrize("name", ["rho_5_5", "rho_6_6"])
def test_analyze_runs_edge_see_saw_and_projectors_once(monkeypatch, capsys, name):
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    searches = _count_calls(monkeypatch, "min_schmidt2_expectations")
    projectors = _count_projector_calls(monkeypatch)
    report = _run_json(capsys, ["analyze", name, *FAST])
    assert len(see_saws) == 1
    # one Schmidt-rank-2 search, over both witnesses
    assert [len(operators) for operators, *_ in searches] == [2]
    assert _one_projector_per_spectrum(projectors, catalog.get(name).state)
    kernel = report["witnesses"]["kernel"]
    assert kernel["epsilon"] == kernel["normalization"] * report["edge"]["minimum"]


def test_analyze_runs_two_see_saw_batches(monkeypatch, capsys):
    # the edge search's round, then one round of W1 and W2 together: not a batch per witness
    batches = []
    see_saw = optimize._see_saw

    def counted(cfg, fixed, free, half_steps, problem):
        batches.append((len(fixed), sorted(set(problem.tolist()))))
        return see_saw(cfg, fixed, free, half_steps, problem)

    monkeypatch.setattr(optimize, "_see_saw", counted)
    _run_json(capsys, ["analyze", "rho_5_5"])
    assert batches == [(25, [0]), (20, [0, 1])]


def test_flags_do_not_leak_into_the_next_main_call(capsys):
    first = _run_json(capsys, ["analyze", "max_entangled", "--seed", "7", "--tol-eig", "1e-6"])
    assert first["seed"] == 7 and first["tolerances"]["eig_rel_tol"] == 1e-6
    second = _run_json(capsys, ["analyze", "max_entangled"])
    assert second["seed"] == 42 and second["tolerances"]["eig_rel_tol"] == 1e-9
    shifted = _run_json(capsys, ["witness", "rho_5_5", "--method", "realign", "--shift", "--seed", "7"])
    assert shifted["metadata"]["eps_shift"] == 1e-6
    plain = _run_json(capsys, ["witness", "rho_5_5", "--method", "realign"])
    assert "eps_shift" not in plain["metadata"]


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


@pytest.mark.parametrize("command", ["analyze", "schmidt2"])
@pytest.mark.parametrize("name", ["not_utf8", "deeply_nested"])
def test_undecodable_file_exit_2(tmp_path, capsys, command, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes({"not_utf8": b"\xff\xfe", "deeply_nested": b"[" * 100_000}[name])
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: matrix file {path}")


def test_unknown_catalog_name_is_parse_error(capsys):
    assert main(["analyze", "rho_9_9"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [
        "--restarts 0",
        "--max-iter 0",
        "--conv-tol 0",
        "--conv-tol nan",
        "--seed -1",
        "--tol-eig nan",
        "--tol-eig -1",
        "--tol-eig 1",
        "--tol-pos nan",
        "--tol-pos=-1e-12",
        "--method kernel --shift 0",
        "--method kernel --shift -1",
        "--method kernel --shift inf",
    ],
)
def test_out_of_range_flags_exit_2(capsys, flags):
    command = "witness" if "--method" in flags else "certify-edge"
    with pytest.raises(SystemExit) as exc:
        main([command, "max_mixed", *flags.split()])
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_schmidt2_on_non_3x3_operator_exit_4(tmp_path, capsys):
    path = tmp_path / "h4.json"
    write_matrix_file(path, BipartiteOperator(np.diag([1.0, 2.0, 3.0, 4.0]), 2, 2))
    assert main(["schmidt2", str(path), *FAST]) == 4
    assert "3x3" in capsys.readouterr().err


def test_realignment_on_unequal_dims_exit_4(tmp_path, capsys):
    path = tmp_path / "r19.json"
    write_matrix_file(path, BipartiteOperator(np.eye(9) / 9, 1, 9))
    assert main(["witness", str(path), "--method", "realign", *FAST]) == 4
    assert "dim_a == dim_b" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [(1, 9), (2, 3)])
def test_analyze_reports_realignment_on_unequal_dims_as_skipped(tmp_path, capsys, dims):
    # realignment needs dim_a == dim_b: analyze reports it, and its witness, as skipped, like any other
    # part that does not apply, and still reports ranks, PPT and the edge verdict
    d = dims[0] * dims[1]
    path = _state_file(tmp_path, "unequal", np.eye(d) / d, dims)
    report = _run_json(capsys, ["analyze", path, *FAST])
    skip = {"skipped": f"realignment requires dim_a == dim_b, got {dims}"}
    assert report["realignment"] == skip
    assert report["witnesses"]["realign"] == skip
    assert report["ranks"] == {"rank": d, "pt_rank": d}
    assert report["ppt"]["verdict"] == "pass"
    assert report["edge"]["verdict"] == "not edge"


def test_analyze_keeps_witness_metadata_when_no_schmidt2_search_applies(tmp_path, capsys):
    # rho_5_5 padded with zeros to 4x4: both witnesses detect it, but the Schmidt-rank-2 search is 3x3 only
    padded = np.zeros((16, 16))
    idx = [4 * i + k for i in range(3) for k in range(3)]
    padded[np.ix_(idx, idx)] = catalog.get("rho_5_5").state.matrix.real
    report = _run_json(capsys, ["analyze", _state_file(tmp_path, "padded", padded, (4, 4)), *FAST])
    witnesses = report["witnesses"]
    skipped = "Schmidt-rank-2 minimization is implemented for 3x3 systems"
    assert witnesses["kernel"]["skipped"] == witnesses["realign"]["skipped"] == skipped
    assert set(witnesses["kernel"]) == {"skipped", "method", "source", "trace_with_state", "epsilon", "normalization"}
    assert set(witnesses["realign"]) == {"skipped", "method", "source", "trace_with_state"}
    assert witnesses["kernel"]["trace_with_state"] < 0.0 and witnesses["realign"]["trace_with_state"] < 0.0
    assert "normalized_distance" not in witnesses


def _state_file(tmp_path, name: str, matrix: np.ndarray, dims: tuple[int, int] = (3, 3)) -> str:
    path = tmp_path / f"{name}.json"
    write_matrix_file(path, BipartiteOperator(matrix, *dims))
    return str(path)


def _barely_npt_file(tmp_path) -> str:
    """rho_5_5 with 1e-7 of the maximally entangled projector: its partial transpose has eigenvalue -1.9e-8."""
    v = helpers.max_entangled_vector(3)
    rho = (1 - 1e-7) * catalog.get("rho_5_5").state.matrix + 1e-7 * np.outer(v, v.conj())
    return _state_file(tmp_path, "barely_npt", rho)


@pytest.mark.parametrize("command", ["analyze", "certify-edge"])
def test_tol_pos_is_the_only_positivity_gate(tmp_path, capsys, command):
    path = _barely_npt_file(tmp_path)
    payload = _run_json(capsys, [command, path, "--tol-pos", "1e-5", *FAST])
    if command == "analyze":
        assert payload["ppt"]["verdict"] == "pass"
        assert -2e-8 < payload["ppt"]["evidence"] < -1.8e-8
    assert payload.get("edge", payload)["verdict"] == "not edge"
    # at the default --tol-pos the same gate rejects the state
    if command == "analyze":
        assert _run_json(capsys, [command, path, *FAST])["ppt"]["verdict"] == "violated"
    else:
        assert main([command, path, *FAST]) == 4
        assert "not PPT" in capsys.readouterr().err


def test_witness_kernel_with_one_trivial_kernel_exit_4(tmp_path, monkeypatch, capsys):
    # under --tol-pos 1e-5 the state is PPT with a full-rank partial transpose: the
    # certificate's see-saw runs and finds "not edge", so the kernel witness does not apply
    path = _barely_npt_file(tmp_path)
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    assert main(["witness", path, "--method", "kernel", "--tol-pos", "1e-5", *FAST]) == 4
    assert "requires an edge verdict, got 'not edge'" in capsys.readouterr().err
    assert len(see_saws) == 1


def test_analyze_2x2_skips_schmidt2_search(tmp_path, monkeypatch, capsys):
    # a 2x2 PPT state is separable, so the kernel witness is skipped on its verdict before any
    # Schmidt-rank-2 search; test_schmidt2_on_non_3x3_operator_exit_4 covers the non-3x3 refusal
    a, b = np.kron([1.0, 0.0], [1.0, 0.0]), np.kron([0.0, 1.0], [0.6, 0.8])
    path = _state_file(tmp_path, "sep2x2", (np.outer(a, a) + np.outer(b, b)) / 2, (2, 2))
    searches = _count_calls(monkeypatch, "min_schmidt2_expectations")
    report = _run_json(capsys, ["analyze", path, *FAST])
    assert report["edge"]["verdict"] == "not edge"
    assert report["witnesses"]["kernel"]["skipped"] == "kernel witness requires an edge verdict, got 'not edge'"
    assert searches == []


_SEE_SAW_STATS = {"restarts_run", "restart_min", "restart_median", "restart_max", "iterations_max", "all_converged"}


@pytest.mark.parametrize("name", ["max_mixed", "separable_sample", "noisy_rho_5_5"])
def test_certify_edge_full_range_is_exact(tmp_path, monkeypatch, capsys, name):
    if name == "noisy_rho_5_5":
        noisy = 0.9 * catalog.get("rho_5_5").state.matrix + 0.1 * np.eye(9) / 9
        name = _state_file(tmp_path, name, noisy)
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    payload = _run_json(capsys, ["certify-edge", name, *FAST])
    assert see_saws == []
    assert payload["verdict"] == "not edge"
    assert payload["minimum"] == 0.0
    assert payload["residual_range"] == 0.0 and payload["residual_pt_range"] == 0.0
    assert payload["argmin"]["a"][0] == [1.0, 0.0] and payload["argmin"]["b"][0] == [1.0, 0.0]
    assert _SEE_SAW_STATS.isdisjoint(payload)


def test_certify_edge_rank_deficient_runs_one_see_saw(monkeypatch, capsys):
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    payload = _run_json(capsys, ["certify-edge", "rho_5_5", *FAST])
    assert len(see_saws) == 1
    assert payload["verdict"] == "edge (heuristic)"
    assert _SEE_SAW_STATS <= set(payload)


@pytest.mark.parametrize("rank", [4, 5])
def test_certify_edge_rank_deficient_separable_reaches_zero(tmp_path, monkeypatch, capsys, rank):
    rho = helpers.separable_mixture(rank)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == rank
    path = _state_file(tmp_path, f"sep{rank}", rho)
    see_saws = _count_calls(monkeypatch, "min_generic_quadratic")
    payload = _run_json(capsys, ["certify-edge", path, *FAST])
    assert len(see_saws) == 1
    assert payload["verdict"] == "not edge"
    assert payload["minimum"] < 1e-10


def _count_dense_eigensolves(monkeypatch) -> list:
    """Record every call of ``np.linalg.eigh`` or ``eigvalsh`` on one 2-d matrix (stacks are see-saw steps)."""
    calls: list = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            if np.ndim(a) == 2:
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _non_psd_matrix() -> np.ndarray:
    """Unit trace and Hermitian, with eigenvalue -0.1."""
    return np.diag([0.6, 0.5, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize(
    "name,exit_code,expected",
    [("full_rank_ppt", 0, 2), ("npt", 0, 2), ("non_psd", 3, 1)],
)
def test_analyze_decomposes_each_matrix_once(tmp_path, monkeypatch, capsys, name, exit_code, expected):
    from pptedge import linalg

    v = helpers.max_entangled_vector(3)
    matrix = {
        "full_rank_ppt": 0.9 * catalog.get("rho_5_5").state.matrix + 0.1 * np.eye(9) / 9,
        "npt": np.outer(v, v.conj()),
        "non_psd": _non_psd_matrix(),
    }[name]
    path = _state_file(tmp_path, name, matrix)
    solves = _count_dense_eigensolves(monkeypatch)
    # the density check reads the spectrum, whose decomposition is the one Hermiticity check of rho
    is_hermitian, hermiticity_checks = linalg.is_hermitian, []

    def counted(m, *args, **kwargs):
        if np.shape(m) == matrix.shape and np.array_equal(m, matrix):
            hermiticity_checks.append(1)
        return is_hermitian(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_hermitian", counted)
    assert main(["analyze", path, *FAST]) == exit_code
    capsys.readouterr()
    assert len(solves) == expected, solves
    assert len(hermiticity_checks) == 1


def test_utf8_file_reads_under_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 whatever the locale; with coercion off, POSIX makes Python's default encoding ASCII
    path = tmp_path / "noise.json"
    payload = {"dims": [3, 3], "matrix": [[[1 / 9 if i == j else 0.0, 0.0] for j in range(9)] for i in range(9)]}
    path.write_text(json.dumps({**payload, "metadata": {"name": "\u03c1 = I/9"}}, ensure_ascii=False), encoding="utf-8")
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "pptedge", "certify-edge", str(path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "not edge"


@pytest.mark.parametrize(
    "name, noise, verdict", [("full_rank_ppt", 0.1, "pass"), ("rho_5_5", 0.0, "violated")], ids=["full_rank_ppt", "rho_5_5"]
)
def test_analyze_file_makes_one_svd(tmp_path, monkeypatch, capsys, name, noise, verdict):
    # the reported realignment verdict is the witness's gate, and W2 is built from the same cached SVD of R(rho)
    matrix = (1.0 - noise) * catalog.get("rho_5_5").state.matrix + noise * np.eye(9) / 9
    path = _state_file(tmp_path, name, matrix)
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = _run_json(capsys, ["analyze", path, *FAST])
    assert report["realignment"]["verdict"] == verdict
    if verdict == "pass":
        assert report["witnesses"]["realign"]["skipped"].startswith("realignment witness requires trace norm > 1")
    else:
        assert report["witnesses"]["realign"]["trace_with_state"] < 0.0
    assert calls == [(9, 9)]


def test_analyze_catalog_state_decomposes_once_per_process(monkeypatch, capsys):
    catalog._built.cache_clear()
    solves = _count_dense_eigensolves(monkeypatch)
    first = _run_json(capsys, ["analyze", "rho_5_5", *FAST])
    assert len(solves) == 2, solves
    solves.clear()
    assert _run_json(capsys, ["analyze", "rho_5_5", *FAST]) == first
    assert solves == []


def test_analyze_catalog_state_computes_exact_ranks_once_per_process(monkeypatch, capsys):
    # the exact ranks of an entry never change, so two analyses of a fresh entry compute them once
    monkeypatch.setattr(catalog, "_built", functools.cache(catalog._built.__wrapped__))
    calls = []
    exact_rank = linalg.exact_rank
    monkeypatch.setattr(linalg, "exact_rank", lambda m: calls.append(np.shape(m)) or exact_rank(m))
    for _ in range(2):
        report = _run_json(capsys, ["analyze", "rho_5_5", *FAST])
        assert report["ranks"] == {"rank": 5, "pt_rank": 5, "exact_rank": 5, "exact_pt_rank": 5}
    assert calls == [(9, 9), (9, 9)]


def test_analyze_skips_a_kernel_witness_that_does_not_detect_its_state(monkeypatch, capsys):
    # at --tol-eig 0.3 the eigenvalues dropped from rho are not zero and Tr(W1 rho) > 0: W1 is reported
    # as skipped, with that value, and only W2 goes on to a Schmidt-rank-2 search
    searches = _count_calls(monkeypatch, "min_schmidt2_expectations")
    report = _run_json(capsys, ["analyze", "rho_5_5", "--tol-eig", "0.3", *FAST])
    kernel = report["witnesses"]["kernel"]
    assert kernel["skipped"].startswith(f"Tr(W rho) = {kernel['trace_with_state']:.6e} >= 0 at --tol-eig 0.3")
    assert set(kernel) == {"skipped", "method", "source", "trace_with_state", "epsilon", "normalization"}
    assert kernel["trace_with_state"] > 0.0
    assert "schmidt2_best_value" in report["witnesses"]["realign"]
    assert "normalized_distance" not in report["witnesses"]
    assert [len(operators) for operators, *_ in searches] == [1]


@pytest.mark.parametrize(
    "name,tol_eig,rank", [("rho_5_5", "1e-9", 5), ("rho_5_5", "0.3", 3), ("rho_6_6", "1e-9", 6), ("rho_6_6", "0.3", 4)]
)
def test_kernel_witness_normalization_agrees_with_reported_ranks(capsys, name, tol_eig, rank):
    # the reported ranks and the operator behind the witness apply one rank rule to one spectrum,
    # for catalog states too: at --tol-eig 0.3 only the largest eigenvalues count
    report = _run_json(capsys, ["analyze", name, "--tol-eig", tol_eig, *FAST])
    ranks = report["ranks"]
    assert (ranks["rank"], ranks["pt_rank"]) == (rank, rank)
    assert report["edge"]["verdict"] == "edge (heuristic)"
    kernel = report["witnesses"]["kernel"]
    assert kernel["normalization"] == 1.0 / ((9 - ranks["rank"]) + (9 - ranks["pt_rank"]))
    # Tr(W1 rho) = -eps needs the eigenvalues dropped at --tol-eig to be zero; at 0.3 the
    # "kernels" hold eigenvectors of nonzero eigenvalue, and W1 no longer detects rho
    if rank in (5, 6):
        assert abs(kernel["trace_with_state"] + kernel["epsilon"]) < 1e-12
    else:
        assert kernel["epsilon"] > 0.0 and kernel["trace_with_state"] > 0.0 and "skipped" in kernel


@pytest.mark.parametrize("weight,tol_eig,rank", [(0.0, "1e-9", 4), (1e-7, "1e-9", 5), (1e-7, "1e-5", 4)])
def test_analyze_separable_reports_ranks_at_tol_eig_and_skips_kernel_witness(
    tmp_path, monkeypatch, capsys, weight, tol_eig, rank
):
    # a 1e-7 admixture of |00><00| to a rank-4 separable state counts only at the default --tol-eig;
    # either way the "not edge" minimum is about zero, so W1 would detect nothing: none is built
    # and no Schmidt-rank-2 search runs
    e00 = np.eye(9)[0]
    rho = (1 - weight) * helpers.separable_mixture(4) + weight * np.outer(e00, e00)
    path = _state_file(tmp_path, "sep4", rho)
    searches = _count_calls(monkeypatch, "min_schmidt2_expectations")
    report = _run_json(capsys, ["analyze", path, "--tol-eig", tol_eig, *FAST])
    ranks = report["ranks"]
    assert (ranks["rank"], ranks["pt_rank"]) == (rank, rank)
    assert report["edge"]["verdict"] == "not edge"
    assert "skipped" in report["witnesses"]["kernel"]
    assert "normalized_distance" not in report["witnesses"]
    assert searches == []


@pytest.mark.parametrize(
    "name,message",
    [
        ("non_hermitian", "density matrix must be Hermitian within 1e-12"),
        ("trace_two", "density matrix must have unit trace, got 2"),
        ("non_psd", "density matrix has negative eigenvalue -1.000e-01"),
    ],
)
def test_invalid_state_messages(tmp_path, capsys, name, message):
    skew = np.eye(9, dtype=complex) / 9
    skew[0, 1] = 0.01j
    matrix = {"non_hermitian": skew, "trace_two": 2 * np.eye(9) / 9, "non_psd": _non_psd_matrix()}[name]
    path = _state_file(tmp_path, name, matrix)
    for command in (["analyze"], ["certify-edge"], ["witness", "--method", "realign"]):
        assert main([command[0], path, *command[1:], *FAST]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_file_state_is_named_by_its_path(tmp_path, capsys):
    path = _state_file(tmp_path, "edge", catalog.get("rho_5_5").state.matrix)
    report = _run_json(capsys, ["analyze", path, *FAST])
    assert report["state"] == path
    assert report["edge"]["state"] == path
    assert report["witnesses"]["kernel"]["source"] == path
    assert report["witnesses"]["realign"]["source"] == path
    assert _run_json(capsys, ["certify-edge", path, *FAST])["state"] == path
    for method in ("kernel", "realign"):
        assert main(["witness", path, "--method", method, *FAST]) == 0
        captured = capsys.readouterr()
        meta = json.loads(captured.out)["metadata"]
        assert meta["source"] == path
        assert captured.err == f"Tr(W rho) = {meta['trace_with_state']:.12e}\n"
        # with --out the payload goes to the file and the value to stdout
        out = tmp_path / f"{method}.json"
        assert main(["witness", path, "--method", method, *FAST, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (f"Tr(W rho) = {meta['trace_with_state']:.12e}\n", "")
        assert json.loads(out.read_text())["metadata"] == meta
    assert main(["witness", path, "--method", "realign", *FAST, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
