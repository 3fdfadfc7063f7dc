import json
import pickle

import numpy as np
import pytest

import helpers
from pptedge import optimize
from pptedge.bipartite import BipartiteOperator, schmidt_coefficients, transpose_b
from pptedge.exceptions import NotApplicableError
from pptedge.optimize import (
    OptResult,
    SeeSawConfig,
    min_generic_quadratic,
    min_schmidt2_expectation,
    min_schmidt2_expectations,
)

QUICK = SeeSawConfig(restarts=30, max_iter=300, seed=5)
# degenerate objectives (zero, rank-deficient or flat factors) must not divide by zero on the way
NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


def _op(h: np.ndarray) -> BipartiteOperator:
    """A 9x9 matrix as an operator on C^3 (x) C^3."""
    return BipartiteOperator(h, 3, 3)


def _product_value(h: np.ndarray, pv) -> float:
    v = pv.tensor()
    return float(np.real(np.vdot(v, h @ v)))


def _plus_conjugate_term(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """h1 + h2^T_B on 3x3, whose expectation in a (x) b is <ab|h1|ab> + <a conj(b)|h2|a conj(b)>."""
    return h1 + transpose_b(h2, 3, 3)


@NO_RUNTIME_WARNING
def test_identity_objective_is_one():
    res = min_generic_quadratic(_op(np.eye(9)), QUICK)
    assert abs(res.best_value - 1.0) < 1e-12


@NO_RUNTIME_WARNING
def test_max_entangled_projector_reaches_zero():
    v = helpers.max_entangled_vector(3)
    res = min_generic_quadratic(_op(np.outer(v, v.conj())), QUICK)
    assert res.best_value < 1e-9


@NO_RUNTIME_WARNING
def test_swap_operator_reaches_zero():
    res = min_generic_quadratic(_op(helpers.swap_operator(3)), QUICK)
    assert -1e-12 <= res.best_value < 1e-9


@NO_RUNTIME_WARNING
def test_zero_objective():
    res = min_generic_quadratic(_op(np.zeros((9, 9))), QUICK)
    assert abs(res.best_value) < 1e-12


@NO_RUNTIME_WARNING
def test_full_space_projector_complement_is_zero():
    # objective norm((I - P) v)^2 with P the full-space projector
    res = min_generic_quadratic(_op(np.eye(9) - np.eye(9)), QUICK)
    assert abs(res.best_value) < 1e-12


def test_best_value_is_minimum_of_restarts():
    rng = np.random.default_rng(0)
    h = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(_op(h), QUICK)
    assert res.best_value == float(res.restart_values.min())
    assert res.best_index == int(np.argmin(res.restart_values))


def test_argmin_reevaluates_to_best_value():
    rng = np.random.default_rng(1)
    h = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(_op(h), QUICK)
    assert abs(_product_value(h, res.argmin) - res.best_value) < 1e-10


def test_argmin_reevaluation_with_conjugate_term():
    rng = np.random.default_rng(2)
    h1 = helpers.random_hermitian(rng, 9)
    h2 = helpers.random_hermitian(rng, 9)
    res = min_generic_quadratic(_op(_plus_conjugate_term(h1, h2)), QUICK)
    pv = res.argmin
    direct = np.real(np.vdot(pv.tensor(), h1 @ pv.tensor()))
    partner = pv.conjugate_partner()
    direct += np.real(np.vdot(partner, h2 @ partner))
    assert abs(direct - res.best_value) < 1e-10


def half_step_values(h: np.ndarray, rank: int, cfg: SeeSawConfig) -> np.ndarray:
    """Each restart's reported value after every half-step, (2 * sweeps, restarts), from the see-saw's own pieces.

    Alternates the two half-steps of `min_generic_quadratic` (rank 1) or
    `min_schmidt2_expectation` (rank 2) on 3x3, as `_see_saw`'s plain sweeps
    do (test_sweep_values_never_increase covers its extrapolated ones), from the
    starts of restarts 0 .. restarts - 1 in one batch (a restart's arithmetic
    does not depend on its batch), until each restart's sweep lowers its value
    by less than `conv_tol` or `max_iter` sweeps pass. A restart that has
    stopped repeats its last value. Every reported value is checked against
    <psi|H|psi> / <psi|psi> recomputed from the two factors that half-step
    returns, psi = sum_r A[:, r] (x) B[:, r]. H is the half-steps' only
    objective, so every row's problem index is 0.
    """
    from pptedge.optimize import _half_step, _starts

    free_first = 1 if rank == 1 else 0  # the rank-1 see-saw starts from A, the rank-2 one from B
    steps = [(free, _half_step(h, (3, 3), free)) for free in (free_first, 1 - free_first)]
    fixed = _starts(cfg.seed, range(cfg.restarts), 3, rank)
    values, active, problem = [], np.ones(cfg.restarts, dtype=bool), np.zeros(cfg.restarts, dtype=int)
    for _ in range(cfg.max_iter):
        for free, step in steps:
            w, kept, new = step(fixed, problem)
            a, b = (kept, new) if free == 1 else (new, kept)
            psi = np.einsum("nir,njr->nij", a, b).reshape(cfg.restarts, 9)
            quotient = np.einsum("ni,ij,nj->n", psi.conj(), h, psi).real / np.einsum("ni,ni->n", psi.conj(), psi).real
            assert np.abs(quotient - w).max() < 1e-12
            values.append(np.where(active, w, values[-1]) if values else w)
            fixed = new
        if len(values) > 2:
            active &= np.abs(values[-3] - values[-1]) >= cfg.conv_tol
        if not active.any():
            break
    return np.array(values)


def test_monotone_half_steps_product():
    rng = np.random.default_rng(3)
    cfg = SeeSawConfig(restarts=20, max_iter=200, seed=9)
    h1 = helpers.random_hermitian(rng, 9)
    h2 = helpers.random_hermitian(rng, 9)
    values = half_step_values(_plus_conjugate_term(h1, h2), 1, cfg)
    assert np.diff(values, axis=0).max() <= 1e-14


def test_monotone_half_steps_schmidt2():
    rng = np.random.default_rng(4)
    cfg = SeeSawConfig(restarts=20, max_iter=200, seed=9)
    values = half_step_values(helpers.random_hermitian(rng, 9), 2, cfg)
    assert np.diff(values, axis=0).max() <= 1e-14


def test_deterministic_results_byte_identical():
    rng = np.random.default_rng(5)
    h = helpers.random_hermitian(rng, 9)
    first = min_generic_quadratic(_op(h), QUICK)
    second = min_generic_quadratic(_op(h), QUICK)
    assert pickle.dumps(first) == pickle.dumps(second)
    s_first = min_schmidt2_expectation(_op(h), QUICK)
    s_second = min_schmidt2_expectation(_op(h), QUICK)
    assert pickle.dumps(s_first) == pickle.dumps(s_second)


def test_brute_force_oracle_agreement_2x2():
    rng = np.random.default_rng(2024)
    cfg = SeeSawConfig(restarts=50, max_iter=300, seed=1)
    for trial in range(6):
        h = helpers.random_hermitian(rng, 4)
        res = min_generic_quadratic(BipartiteOperator(h, 2, 2), cfg)
        oracle = helpers.brute_force_product_min_2x2(h)
        assert abs(res.best_value - oracle) < 1e-4, f"trial {trial}"


@NO_RUNTIME_WARNING
def test_schmidt2_identity_is_one():
    res = min_schmidt2_expectation(_op(np.eye(9)), QUICK)
    assert abs(res.best_value - 1.0) < 1e-12


def test_schmidt2_reaches_rank_two_ground_state():
    bell = np.zeros(9, dtype=complex)
    bell[0] = bell[4] = 1.0 / np.sqrt(2)
    h = np.eye(9) - 2.0 * np.outer(bell, bell.conj())
    res = min_schmidt2_expectation(_op(h), QUICK)
    assert abs(res.best_value + 1.0) < 1e-9


def test_schmidt2_feasibility():
    h = helpers.random_hermitian(np.random.default_rng(6), 9)
    res = min_schmidt2_expectation(_op(h), QUICK)
    vec = res.argmin.vector
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    coeffs = schmidt_coefficients(vec, 3, 3)
    assert coeffs[2] < 1e-8 * coeffs[0]
    direct = float(np.real(np.vdot(vec, h @ vec)))
    assert abs(direct - res.best_value) < 1e-10


def test_restart_metadata_shapes():
    res = min_generic_quadratic(_op(np.eye(9)), SeeSawConfig(restarts=7, max_iter=50, seed=2))
    assert len(res.restart_values) == 7
    assert len(res.iterations_used) == 7
    assert len(res.converged) == 7
    assert res.converged.all()
    assert isinstance(res, OptResult)
    payload = json.loads(json.dumps({"best_value": res.best_value, "restart_values": res.restart_values.tolist()}))
    assert payload["best_value"] == res.best_value


def test_config_validation():
    with pytest.raises(ValueError):
        SeeSawConfig(restarts=0)
    with pytest.raises(ValueError):
        SeeSawConfig(max_iter=0)
    with pytest.raises(ValueError):
        SeeSawConfig(conv_tol=0.0)
    # an infinite tolerance stops every restart within 3 sweeps; the command line rejects it too
    # a non-real would raise a bare TypeError from the comparison, and a bool (a Real) would run as 1.0
    for bad in (float("inf"), float("nan"), "1", None, 1j, True):
        with pytest.raises(ValueError, match="conv_tol"):
            SeeSawConfig(conv_tol=bad)
    # any other positive finite real stays accepted
    assert [SeeSawConfig(conv_tol=ok).conv_tol for ok in (1, np.float32(0.5))] == [1, 0.5]


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", -1), ("seed", 1.5), ("seed", "7"), ("restarts", 2.5), ("max_iter", 2.5),
        ("restarts", True), ("max_iter", True), ("seed", False),
    ],
)
def test_config_rejects_bad_seed_and_counts(field, value):
    # each of these failed only later, at the first draw or inside range(), or (a bool is an Integral) ran as 0 or 1
    with pytest.raises(ValueError, match=field):
        SeeSawConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = SeeSawConfig(restarts=np.int64(3), max_iter=np.int32(5), seed=np.uint8(0))
    assert len(min_generic_quadratic(_op(np.eye(9)), cfg).restart_values) == 3


def test_rejects_non_hermitian():
    bad = np.zeros((9, 9))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        min_generic_quadratic(_op(bad), QUICK)
    with pytest.raises(ValueError):
        min_schmidt2_expectation(_op(bad), QUICK)


def test_dims_inference_and_validation():
    op = BipartiteOperator(np.eye(6), 2, 3)
    res = min_generic_quadratic(op, SeeSawConfig(restarts=4, max_iter=30, seed=3))
    assert abs(res.best_value - 1.0) < 1e-12
    assert res.argmin.a.size == 2 and res.argmin.b.size == 3
    # the Schmidt-rank-2 search covers the 3x3 split only
    for dims in ((2, 3), (2, 2), (4, 4)):
        with pytest.raises(NotApplicableError):
            min_schmidt2_expectation(BipartiteOperator(np.eye(dims[0] * dims[1]), *dims), QUICK)


def _argmin_bits(argmin) -> tuple[bytes, ...]:
    return tuple(np.asarray(x).tobytes() for x in vars(argmin).values())


def _catalog_edge_operator(name: str) -> BipartiteOperator:
    from pptedge import catalog

    entry = catalog.get(name)
    eye = np.eye(9)
    p_range, p_pt = (helpers.row_space_projector(basis) for basis in (entry.range_basis, entry.pt_range_basis))
    return _op(_plus_conjugate_term(eye - p_range, eye - p_pt))


def _max_entangled_projector() -> np.ndarray:
    v = helpers.max_entangled_vector(3)
    return np.outer(v, v.conj())


# every half-step of the *_degenerate runs has a degenerate minimal eigenvalue
# (test_degenerate_objectives_have_degenerate_half_steps), so LAPACK's choice
# within the eigenspace is the only tie-break
_DEGENERATE = {"product": helpers.swap_operator(3), "schmidt2": _max_entangled_projector()}
_BATCH_OBJECTIVES = {
    "product": lambda cfg: min_generic_quadratic(_catalog_edge_operator("rho_5_5"), cfg),
    "schmidt2": lambda cfg: min_schmidt2_expectation(_op(helpers.random_hermitian(np.random.default_rng(8), 9)), cfg),
    "product_degenerate": lambda cfg: min_generic_quadratic(_op(_DEGENERATE["product"]), cfg),
    "schmidt2_degenerate": lambda cfg: min_schmidt2_expectation(_op(_DEGENERATE["schmidt2"]), cfg),
}
_BATCH_REFERENCE: dict[str, OptResult] = {}


@pytest.mark.parametrize("objective", sorted(_BATCH_OBJECTIVES))
# 10 and 11: one Schmidt-rank-2 round and one restart past it
@pytest.mark.parametrize("batch", [1, 3, 10, 11, 37, 200])
def test_restart_is_bit_identical_in_any_batch(objective, batch):
    run = _BATCH_OBJECTIVES[objective]
    if objective not in _BATCH_REFERENCE:
        _BATCH_REFERENCE[objective] = run(SeeSawConfig(restarts=200, seed=42))
    ref = _BATCH_REFERENCE[objective]
    res = run(SeeSawConfig(restarts=batch, seed=42))
    assert res.restart_values.tobytes() == ref.restart_values[:batch].tobytes()
    assert res.iterations_used.tobytes() == ref.iterations_used[:batch].tobytes()
    # a smaller cap runs a prefix of the restarts, so a cap ending at the best restart reproduces it
    prefix = run(SeeSawConfig(restarts=res.best_index + 1, seed=42))
    assert prefix.best_value == res.best_value
    assert _argmin_bits(prefix.argmin) == _argmin_bits(res.argmin)


@pytest.mark.parametrize("objective", sorted(_DEGENERATE))
def test_degenerate_objectives_have_degenerate_half_steps(objective):
    # a half-step eigensolves the compression of H onto free (x) span(fixed) or span(fixed) (x) free;
    # every such compression of these operators has rank <= 1, so a degenerate minimum 0
    from pptedge.optimize import _starts

    rank = 1 if objective == "product" else 2
    h = _DEGENERATE[objective]
    for f in _starts(42, range(25), 3, rank):
        q = np.linalg.qr(f)[0]
        for iso in (np.kron(np.eye(3), q), np.kron(q, np.eye(3))):
            w = np.linalg.eigvalsh(iso.conj().T @ h @ iso)
            assert abs(w[0]) < 1e-12 and w[1] - w[0] < 1e-12


@NO_RUNTIME_WARNING
@pytest.mark.parametrize("minimizer", [min_generic_quadratic, min_schmidt2_expectation], ids=["product", "schmidt2"])
@pytest.mark.parametrize("objective", ["identity", "swap"])
def test_repeated_runs_byte_identical_on_degenerate_objectives(objective, minimizer):
    h = _op(np.eye(9) if objective == "identity" else helpers.swap_operator(3))
    cfg = SeeSawConfig(seed=42)
    assert pickle.dumps(minimizer(h, cfg)) == pickle.dumps(minimizer(h, cfg))


def test_seeds_draw_different_starts():
    from pptedge.optimize import _starts

    for dim, rank in ((3, 1), (3, 2)):
        # the seed enters in 64-bit limbs, so seeds that agree modulo 2**64 draw different starts too
        seeds = (1, 2, 3, 4, 5, 2**64 + 1, 2**64 + 2, 2**128 + 1, 10**23)
        draws = {seed: {row.tobytes() for row in _starts(seed, range(200), dim, rank)} for seed in seeds}
        assert all(len(rows) == 200 for rows in draws.values())
        for s in draws:
            for t in draws:
                assert s == t or draws[s].isdisjoint(draws[t]), (dim, rank, s, t)


def test_splitmix64_reference_gives_the_published_outputs():
    # the first outputs of SplitMix64 seeded with 0, as in its reference implementation
    assert [helpers.splitmix64_output(0, n) for n in (1, 2, 3, 4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


@pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1, 2**64 + 5, 10**23])
def test_uniforms_equal_the_splitmix64_reference(seed):
    # bit for bit, and the starts are Box-Muller normals of the reference uniforms, normalized per restart
    ref = np.array([[helpers.counter_uniform(seed, r, j) for j in range(12)] for r in range(3, 14)])
    assert optimize._uniforms(seed, range(3, 14), 12).tobytes() == ref.tobytes()
    u = ref.reshape(-1, 2, 3, 2)
    z = np.sqrt(-2.0 * np.log(u[:, 0])) * (np.cos(2 * np.pi * u[:, 1]) + 1j * np.sin(2 * np.pi * u[:, 1]))
    expected = z / np.sqrt((np.abs(z) ** 2).sum(axis=(1, 2)))[:, None, None]
    assert np.abs(optimize._starts(seed, range(3, 14), 3, 2) - expected).max() < 1e-14


@pytest.mark.parametrize("dim,rank", [(3, 1), (3, 2), (2, 1), (9, 1)])
@pytest.mark.parametrize("cap", [7, 33])
def test_starts_equal_the_per_restart_draws(dim, rank, cap):
    # restart r's start, drawn alone, is bit-identical to its row in every round of a cap that ends mid-round,
    # and in the whole range at once
    size = optimize._ROUND[rank]
    ranges = [range(lo, min(lo + size, cap)) for lo in range(0, cap, size)] + [range(cap), range(1, cap)]
    for seed in (0, 5, 42, 2**64 + 5, 10**23):
        for indices in ranges:
            block = optimize._starts(seed, indices, dim, rank)
            assert block.shape == (len(indices), dim, rank)
            for i, r in enumerate(indices):
                assert optimize._starts(seed, range(r, r + 1), dim, rank)[0].tobytes() == block[i].tobytes()


def test_starts_hand_out_fresh_writable_copies():
    # the see-saw writes into its starts
    assert optimize._starts(6, range(10), 3, 2).flags.writeable


@pytest.mark.parametrize("dim,rank", [(3, 1), (3, 2)])
def test_start_draws_have_uniform_and_gaussian_moments(dim, rank):
    # 10**5 restarts: their uniforms have mean 1/2 and variance 1/12, and each start is a unit vector whose
    # 2 dim rank real components have mean 0 and covariance I / (2 dim rank), as for a normalized complex Gaussian
    n, k = 10**5, 2 * dim * rank
    u = optimize._uniforms(11, range(n), k)
    assert 0.0 < u.min() and u.max() < 1.0
    assert abs(u.mean() - 1 / 2) < 2e-3 and abs(u.var() - 1 / 12) < 1e-3
    starts = optimize._starts(11, range(n), dim, rank)
    assert np.abs(np.linalg.norm(starts, axis=(1, 2)) - 1.0).max() < 1e-15
    x = starts.reshape(n, -1).view(float)
    assert np.abs(x.mean(axis=0)).max() < 5.0 / np.sqrt(k * n)
    assert np.abs(np.cov(x, rowvar=False) - np.eye(k) / k).max() < 3e-3


def _fused_operators() -> tuple:
    """W1 and W2 of rho_5_5, W2 of rho_6_6 and a random Hermitian operator."""
    from pptedge import catalog, criteria, witness

    r55, r66 = (catalog.get(name).state for name in ("rho_5_5", "rho_6_6"))
    w1 = witness.kernel_witness(criteria.certify_edge(r55, SeeSawConfig()))
    w2s = (witness.realignment_witness(state).operator for state in (r55, r66))
    return (w1.operator, *w2s, _op(helpers.random_hermitian(np.random.default_rng(15), 9)))


# At 2 sweeps every objective runs to the cap of 40; at 5 they stop after 3, 1, 4 and 1 rounds, so later
# rounds batch fewer objectives than the first.
_FUSED_CONFIGS = {
    "default": SeeSawConfig(),
    "restarts_7": SeeSawConfig(restarts=7),
    "restarts_40_max_iter_2": SeeSawConfig(restarts=40, max_iter=2),
    "restarts_40_max_iter_5": SeeSawConfig(restarts=40, max_iter=5),
}


@pytest.mark.parametrize("config", sorted(_FUSED_CONFIGS))
def test_fused_schmidt2_search_equals_solo_searches(config):
    cfg, operators = _FUSED_CONFIGS[config], _fused_operators()
    solo = [pickle.dumps(min_schmidt2_expectation(op, cfg)) for op in operators]
    fused = min_schmidt2_expectations(operators, cfg)
    assert [pickle.dumps(res) for res in fused] == solo
    assert [pickle.dumps(res) for res in min_schmidt2_expectations(operators[::-1], cfg)] == solo[::-1]
    if config == "restarts_40_max_iter_5":
        assert [len(res.restart_values) for res in fused] == [30, 10, 40, 10]


def test_fused_schmidt2_search_refuses_before_any_see_saw(monkeypatch):
    batches = []
    see_saw = optimize._see_saw
    monkeypatch.setattr(optimize, "_see_saw", lambda *args: batches.append(args) or see_saw(*args))
    with pytest.raises(NotApplicableError):
        min_schmidt2_expectations((_op(np.eye(9)), BipartiteOperator(np.eye(4), 2, 2)), QUICK)
    assert min_schmidt2_expectations((), QUICK) == ()
    assert batches == []


def _hits(values: np.ndarray, conv_tol: float) -> int:
    """Values within the stop rule's tolerance of their minimum, computed independently of `_multistart`."""
    best = float(values.min())
    return int(np.sum(values - best <= max(1e-9 * abs(best), conv_tol)))


_STOP_RULE_OPERATORS = {
    "edge_5_5": lambda: _catalog_edge_operator("rho_5_5"),
    "edge_6_6": lambda: _catalog_edge_operator("rho_6_6"),
    **{f"random_{k}": (lambda k=k: _op(helpers.random_hermitian(np.random.default_rng(100 + k), 9))) for k in range(3)},
}
_MINIMIZERS = {"product": min_generic_quadratic, "schmidt2": min_schmidt2_expectation}
# restarts per round of each objective's stop rule
_ROUND_SIZE = {"product": 25, "schmidt2": 10}


# 8 sweeps leave most restarts short of their basin, so some runs take several rounds or reach the cap
@pytest.mark.parametrize("max_iter", [8, 500])
@pytest.mark.parametrize("cap", [7, 25, 60, 200])
@pytest.mark.parametrize("objective", sorted(_MINIMIZERS))
@pytest.mark.parametrize("operator", sorted(_STOP_RULE_OPERATORS))
def test_stop_rule(operator, objective, cap, max_iter):
    cfg = SeeSawConfig(restarts=cap, max_iter=max_iter, seed=3)
    res = _MINIMIZERS[objective](_STOP_RULE_OPERATORS[operator](), cfg)
    values = res.restart_values
    n, size = len(values), _ROUND_SIZE[objective]
    assert len(res.iterations_used) == len(res.converged) == n
    assert n == cap or (n < cap and n % size == 0)
    if n < cap:
        assert _hits(values, cfg.conv_tol) >= 3
    before_last_round = values[: (n - 1) // size * size]
    assert before_last_round.size == 0 or _hits(before_last_round, cfg.conv_tol) < 3
    assert res.best_value == float(values.min()) and res.best_index == int(np.argmin(values))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_separable_mixture_stays_not_edge(rank, seed):
    # a separable state's edge minimum is ~0, where 1e-9 relative is no tolerance at all; conv_tol floors it
    from pptedge import criteria

    cfg = SeeSawConfig(seed=seed)
    cert = criteria.certify_edge(BipartiteOperator(helpers.separable_mixture(rank), 3, 3), cfg)
    assert cert.verdict == "not edge"
    # minima of 1e-16..1e-13 lie below conv_tol, so every converged restart counts as a hit
    assert cert.minimum < cfg.conv_tol
    assert len(cert.opt.restart_values) < cfg.restarts


def _qr_inputs(kind: str) -> np.ndarray:
    rng = np.random.default_rng(12)
    f = rng.standard_normal((50, 3, 2)) + 1j * rng.standard_normal((50, 3, 2))
    if kind == "rank_one":
        f[:, :, 1] = (0.3 - 2.0j) * f[:, :, 0]
    elif kind == "zero_first_column":
        f[:, :, 0] = 0.0
    elif kind == "zero_second_column":
        f[:, :, 1] = 0.0
    elif kind == "all_zero":
        f[:] = 0.0
    return f


@pytest.mark.parametrize("kind", ["random", "rank_one", "zero_first_column", "zero_second_column", "all_zero"])
def test_orthonormal_columns_span_the_input(kind):
    # the rank-2 half-step relies on this LAPACK property
    f = _qr_inputs(kind)
    q = np.linalg.qr(f)[0]
    qh = q.conj().transpose(0, 2, 1)
    assert q.shape == f.shape and np.isfinite(q).all()
    assert np.abs(qh @ q - np.eye(2)).max() < 1e-14
    assert np.abs(f - q @ (qh @ f)).max() < 1e-13


def test_orthonormal_columns_factor_each_matrix_on_its_own():
    # every kind of input, interleaved in one stack: each row must be what it is alone
    kinds = ["random", "rank_one", "zero_first_column", "zero_second_column", "all_zero"]
    f = np.empty((50, 3, 2), dtype=complex)
    for i, kind in enumerate(kinds):
        f[i::5] = _qr_inputs(kind)[i::5]
    q = np.linalg.qr(f)[0]
    for row in range(50):
        assert q[row].tobytes() == np.linalg.qr(f[row : row + 1])[0][0].tobytes(), row


def _ground_00() -> np.ndarray:
    """I - 2|00><00|, whose ground state |00> has Schmidt rank one."""
    ket = np.zeros(9)
    ket[0] = 1.0
    return np.eye(9) - 2.0 * np.outer(ket, ket)


@NO_RUNTIME_WARNING
def test_schmidt2_product_ground_state_with_rank_deficient_factors():
    # the ground state |00> has Schmidt rank one, so the factors the half-steps orthonormalize go rank-deficient
    h = _ground_00()
    res = min_schmidt2_expectation(_op(h), SeeSawConfig(seed=42))
    assert abs(res.best_value + 1.0) < 1e-12
    assert np.diff(half_step_values(h, 2, SeeSawConfig(restarts=25, seed=42)), axis=0).max() <= 1e-14
    vec = res.argmin.vector
    assert np.isfinite(vec).all()
    assert schmidt_coefficients(vec, 3, 3)[2] < 1e-8


_RANDOM_H = helpers.random_hermitian(np.random.default_rng(14), 9)
_MONOTONE_OBJECTIVES = {
    "random_product": lambda cfg: min_generic_quadratic(_op(_RANDOM_H), cfg),
    "random_schmidt2": lambda cfg: min_schmidt2_expectation(_op(_RANDOM_H), cfg),
    "edge_5_5_product": lambda cfg: min_generic_quadratic(_catalog_edge_operator("rho_5_5"), cfg),
    "ground_00_schmidt2": lambda cfg: min_schmidt2_expectation(_op(_ground_00()), cfg),
}


@NO_RUNTIME_WARNING
@pytest.mark.parametrize("objective", sorted(_MONOTONE_OBJECTIVES))
def test_sweep_values_never_increase(objective):
    # The production loop, with no test hook: restart r is deterministic, so its value after k sweeps is
    # restart_values[r] at max_iter=k (a restart that stopped earlier keeps its value). The cap is one round.
    # Accepting every extrapolated half-step, with no fallback to the plain factor, fails this test on the random
    # and edge objectives; the |00> objective's rank-2 factors turn rank-deficient, so they are not extrapolated.
    run, cap = _MONOTONE_OBJECTIVES[objective], _ROUND_SIZE[objective.rsplit("_", 1)[1]]
    values = np.array([run(SeeSawConfig(restarts=cap, max_iter=k, seed=42)).restart_values for k in range(1, 41)])
    assert np.diff(values, axis=0).max() <= 1e-14
