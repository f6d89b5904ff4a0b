import math

import numpy as np
import pytest

from specrank.errors import DegenerateSelectionError, DimensionError
from specrank.lrsp import (
    EXACT_GATE_BETA,
    LrspConfig,
    LrspState,
    Selector,
    build_selector,
    column_importance,
    fusion_weights,
    lrsp_apply,
    orthonormal_subspace,
    residual_ratio,
    score_columns,
    soft_topk,
    sparse_pool,
    subspace_proximal,
    temperature,
)
from specrank.svt import numerical_rank, svt_full, svt_gram

EPS = np.finfo(float).eps


def _config(**kw):
    base = dict(r=4, kappa=8)
    base.update(kw)
    return LrspConfig(**base)


def _gram_bound(b, theta):
    """Frobenius distance svt_gram's docstring allows from svt_full(b, theta)."""
    return 10 * min(b.shape) * EPS * np.linalg.norm(b, 2) ** 2 / theta


# -- column importance -------------------------------------------------------


def test_importance_is_half_for_equal_columns():
    u = np.ones((5, 6))
    g = column_importance(u, None, 0.5)
    assert np.array_equal(g, np.full(6, 0.5))


def test_importance_peaks_on_the_dominant_column():
    u = np.ones((4, 5))
    u = u.copy()
    u[:, 2] = 10.0
    g = column_importance(u, None, 0.5)
    assert g.argmax() == 2
    assert np.all((g > 0) & (g < 1))


def test_importance_memory_blend_endpoints():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 8))
    mem = rng.uniform(0.0, 1.0, 8)
    raw = column_importance(u, None, 0.5)
    assert np.array_equal(column_importance(u, mem, 0.0), raw)
    assert np.array_equal(column_importance(u, mem, 1.0), mem)


def test_importance_memory_blend_interior():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((6, 8))
    mem = rng.uniform(0.0, 1.0, 8)
    raw = column_importance(u, None, 0.25)
    got = column_importance(u, mem, 0.25)
    assert np.allclose(got, 0.75 * raw + 0.25 * mem, rtol=1e-15)


def test_importance_rejects_mismatched_memory():
    with pytest.raises(DimensionError):
        column_importance(np.ones((3, 4)), np.full(5, 0.5), 0.5)


# -- scoring and soft selection ----------------------------------------------


def test_scores_vanish_on_zero_matrix():
    assert np.array_equal(score_columns(np.zeros((7, 9)), 3), np.zeros(9))


def test_scores_identical_for_duplicate_columns():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(10)
    u = np.column_stack([col, rng.standard_normal(10), col])
    s = score_columns(u, 5)
    assert s[0] == s[2]


def test_scores_are_linear_in_each_column():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((12, 6))
    assert np.array_equal(score_columns(2.0 * u, 7), 2.0 * score_columns(u, 7))


def test_scores_deterministic_per_seed():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((8, 5))
    assert np.array_equal(score_columns(u, 11), score_columns(u, 11))
    assert not np.array_equal(score_columns(u, 11), score_columns(u, 12))


def test_soft_topk_uniform_on_equal_scores():
    w = soft_topk(np.full(4, 3.7), 2, 1.0)
    assert np.allclose(w, 0.25, rtol=1e-12)


def test_soft_topk_matches_scalar_reference():
    s = np.array([10.0, 0.0, -10.0, -20.0])
    w = soft_topk(s, 1, 1.0)
    # pivot is the 2nd largest score (0.0); softplus per entry, normalized
    sp = [math.log1p(math.exp(v)) if v < 30 else v + math.log1p(math.exp(-v)) for v in s]
    ref = np.array(sp) / sum(sp)
    assert np.allclose(w, ref, rtol=1e-12)


def test_soft_topk_sums_to_one_and_orders_like_scores():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.standard_normal(9)
        w = soft_topk(s, 4, 0.7)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        order = np.argsort(s)
        assert np.all(np.diff(w[order]) >= -1e-15)


def test_soft_topk_small_tau_concentrates_on_top_kappa():
    s = np.array([5.0, 4.0, 3.0, 0.1, 0.05, 0.0])
    w = soft_topk(s, 3, 1e-3)
    assert w[:3].sum() >= 0.99


def test_soft_topk_rejects_full_budget_and_bad_tau():
    with pytest.raises(ValueError):
        soft_topk(np.arange(4.0), 4, 1.0)
    with pytest.raises(ValueError):
        soft_topk(np.arange(4.0), 1, 0.0)


def test_build_selector_one_hot():
    omega = build_selector(np.ones(4), np.array([0.0, 0.0, 1.0, 0.0]), 1)
    assert omega.indices.tolist() == [2]
    assert omega.weights.tolist() == [1.0]


def test_build_selector_matches_brute_force_sort():
    rng = np.random.default_rng(6)
    g = rng.uniform(0.1, 1.0, 7)
    w = rng.uniform(0.0, 1.0, 7)
    w /= w.sum()
    omega = build_selector(g, w, 3)
    ranked = sorted(range(7), key=lambda i: (-w[i], i))[:3]
    assert omega.indices.tolist() == ranked
    assert np.array_equal(omega.weights, g[ranked] * w[ranked])


# Inputs with ties: all equal, duplicates straddling every cut, few distinct values.
TIE_SCORES = {
    "all-equal": np.full(12, 0.25),
    "straddling": np.array([0.3, 0.1, 0.2, 0.1, 0.1, 0.05, 0.1, 0.05, 0.2, 0.0]),
    "few-values": np.random.default_rng(29).integers(0, 4, 50) / 7.0,
}


@pytest.mark.parametrize("name", sorted(TIE_SCORES))
def test_soft_topk_pivot_matches_stable_argsort_under_ties(name):
    s = TIE_SCORES[name]
    for kappa in range(1, s.size):
        pivot = s[np.argsort(-s, kind="stable")[kappa]]
        sp = np.logaddexp(0.0, (s - pivot) / 0.3)
        assert np.array_equal(soft_topk(s, kappa, 0.3), sp / sp.sum())


@pytest.mark.parametrize("name", sorted(TIE_SCORES))
def test_build_selector_matches_stable_argsort_under_ties(name):
    w = TIE_SCORES[name] / TIE_SCORES[name].sum()
    g = np.random.default_rng(30).uniform(0.1, 1.0, w.size)
    for kappa in range(1, w.size + 1):  # kappa == n included
        idx = np.argsort(-w, kind="stable")[:kappa]
        omega = build_selector(g, w, kappa)
        assert np.array_equal(omega.indices, idx)
        assert np.array_equal(omega.weights, g[idx] * w[idx])


def test_build_selector_rejects_all_zero_weights():
    with pytest.raises(DegenerateSelectionError):
        build_selector(np.ones(5), np.zeros(5), 2)


def test_sparse_pool_single_column():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 5))
    omega = Selector(np.array([3]), np.array([1.0]))
    assert np.array_equal(sparse_pool(u, omega), u[:, 3])


def test_sparse_pool_zero_weights_give_zero_vector():
    omega = Selector(np.array([0, 2]), np.array([0.0, 0.0]))
    assert np.array_equal(sparse_pool(np.ones((4, 3)), omega), np.zeros(4))


def test_sparse_pool_matches_naive_sum():
    rng = np.random.default_rng(8)
    u = rng.standard_normal((9, 6))
    omega = Selector(np.array([4, 1, 5]), np.array([0.2, 0.5, 0.1]))
    naive = 0.2 * u[:, 4] + 0.5 * u[:, 1] + 0.1 * u[:, 5]
    assert np.allclose(sparse_pool(u, omega), naive, atol=1e-14)


# -- subspace construction ---------------------------------------------------


def test_subspace_is_orthonormal():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((10, 12))
    omega = build_selector(np.ones(12), np.full(12, 1.0 / 12), 6)
    basis = orthonormal_subspace(u, omega, 4)
    assert np.abs(basis.q.T @ basis.q - np.eye(4)).max() <= 1e-10


def test_subspace_spans_selected_canonical_columns():
    u = np.hstack([np.eye(5)[:, :3], np.zeros((5, 2))])
    omega = Selector(np.array([0, 1, 2]), np.array([0.3, 0.3, 0.3]))
    basis = orthonormal_subspace(u, omega, 3)
    assert basis.n_completed == 0
    proj = basis.q @ basis.q.T
    target = np.diag([1.0, 1.0, 1.0, 0.0, 0.0])
    assert np.abs(proj - target).max() <= 1e-10


def test_subspace_completes_rank_deficient_sketches():
    col = np.arange(1.0, 7.0)
    u = np.column_stack([col, 2.0 * col, np.zeros(6)])  # rank-1 sketch
    omega = Selector(np.array([0, 1, 2]), np.array([0.3, 0.3, 0.3]))
    basis = orthonormal_subspace(u, omega, 3, seed=5)
    assert basis.n_completed == 2
    assert np.abs(basis.q.T @ basis.q - np.eye(3)).max() <= 1e-10
    # the sketch range must still be contained in the basis span
    resid = col - basis.q @ (basis.q.T @ col)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(col)


def test_subspace_completion_is_seeded():
    u = np.zeros((7, 4))
    omega = Selector(np.array([0, 1, 2]), np.array([0.3, 0.3, 0.3]))
    b1 = orthonormal_subspace(u, omega, 3, seed=1)
    b2 = orthonormal_subspace(u, omega, 3, seed=1)
    b3 = orthonormal_subspace(u, omega, 3, seed=2)
    assert np.array_equal(b1.q, b2.q)
    assert not np.array_equal(b1.q, b3.q)


def test_subspace_rejects_excessive_rank():
    u = np.ones((4, 6))
    omega = Selector(np.array([0, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        orthonormal_subspace(u, omega, 3)  # r > kappa
    with pytest.raises(ValueError):
        orthonormal_subspace(u, Selector(np.arange(5), np.full(5, 0.2)), 5)  # r > d


# The helpers that index the matrix by a selector check its indices: numpy
# would wrap a negative one to a column from the end.
@pytest.mark.parametrize("index", [-1, 6])
@pytest.mark.parametrize(
    "helper",
    [sparse_pool, lambda u, omega: orthonormal_subspace(u, omega, 1)],
    ids=["sparse_pool", "orthonormal_subspace"],
)
def test_selector_index_outside_the_matrix_is_a_dimension_error(helper, index):
    u = np.random.default_rng(34).standard_normal((4, 6))
    with pytest.raises(DimensionError, match=r"selector indices must lie in \[0, 6\)"):
        helper(u, Selector(np.array([0, index]), np.array([0.5, 0.5])))


# -- residual probing and the gate -------------------------------------------


def test_residual_ratio_near_zero_inside_the_span():
    rng = np.random.default_rng(10)
    u = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 20))
    q, _ = np.linalg.qr(u[:, :8])
    ratio = residual_ratio(u, q[:, :5], np.ones(20), probes=8, seed=0)
    assert 0.0 <= ratio <= 1e-8


def test_residual_ratio_near_one_outside_the_span():
    u = np.vstack([np.zeros((3, 10)), np.random.default_rng(11).standard_normal((5, 10))])
    q = np.vstack([np.eye(3), np.zeros((5, 3))])  # orthogonal to every column
    ratio = residual_ratio(u, q, np.ones(10), probes=16, seed=1)
    assert 0.999 <= ratio < 1.0


def test_residual_ratio_probe_tracks_exact_fraction():
    rng = np.random.default_rng(12)
    u = rng.standard_normal((30, 60))
    g = rng.uniform(0.2, 1.0, 60)
    ql, _, _ = np.linalg.svd(u, full_matrices=False)
    q = ql[:, :8]
    weighted = u * g[None, :]
    exact = np.linalg.norm(weighted - q @ (q.T @ weighted)) / np.linalg.norm(weighted)
    est = np.median([residual_ratio(u, q, g, probes=32, seed=s) for s in range(11)])
    assert abs(est / exact - 1.0) <= 0.2


def test_residual_ratio_stays_in_range():
    rng = np.random.default_rng(13)
    for seed in range(10):
        u = rng.standard_normal((9, 14))
        q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        ratio = residual_ratio(u, q, rng.uniform(0.1, 1.0, 14), probes=4, seed=seed)
        assert 0.0 <= ratio < 1.0


def test_temperature_schedule_values():
    cfg = _config(tau0=1.0, gamma=0.5, tau_min=0.1)
    assert temperature(1, cfg) == 1.0
    assert temperature(3, cfg) == 0.25
    assert temperature(5, cfg) == 0.1  # floor engaged
    with pytest.raises(ValueError):
        temperature(0, cfg)


# -- subspace shrinkage and fusion -------------------------------------------


def test_subspace_proximal_zero_theta_is_projection():
    rng = np.random.default_rng(14)
    u = rng.standard_normal((10, 7))
    q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
    out = subspace_proximal(u, q, 0.0, beta=3.0)
    assert np.allclose(out, q @ (q.T @ u), atol=1e-10)


def test_subspace_proximal_negative_gate_disables_shrinkage():
    rng = np.random.default_rng(15)
    u = rng.standard_normal((8, 6))
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    out = subspace_proximal(u, q, 5.0, beta=-40.0)
    assert np.allclose(out, q @ (q.T @ u), atol=1e-12 * np.linalg.norm(u))


def test_subspace_proximal_identity_basis_saturated_gate_is_svt():
    rng = np.random.default_rng(16)
    u = rng.standard_normal((6, 9))
    out = subspace_proximal(u, np.eye(6), 0.8, beta=EXACT_GATE_BETA)
    # the identity basis and the saturated gate add no rounding
    assert np.array_equal(out, svt_gram(u, 0.8))
    assert np.linalg.norm(out - svt_full(u, 0.8)) <= _gram_bound(u, 0.8)


def test_subspace_proximal_matches_lapack_on_wide_coordinates():
    # r = 8 coordinates over N = 4096 columns, the shape the solver shrinks
    rng = np.random.default_rng(31)
    u = rng.standard_normal((31, 4)) @ rng.standard_normal((4, 4096))
    u += 0.1 * rng.standard_normal(u.shape)
    q, _ = np.linalg.qr(rng.standard_normal((31, 8)))
    b = q.T @ u
    s = np.linalg.svd(b, compute_uv=False)
    for theta in (0.05 * s[0], 0.5 * (s[2] + s[3]), s[5]):
        out = subspace_proximal(u, q, theta, beta=EXACT_GATE_BETA)
        ref = q @ svt_full(b, theta)
        assert np.linalg.norm(out - ref) <= _gram_bound(b, theta)


def test_subspace_proximal_output_rank_bounded_by_basis_width():
    rng = np.random.default_rng(17)
    u = rng.standard_normal((12, 20))
    q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    assert numerical_rank(subspace_proximal(u, q, 0.1, beta=0.0)) <= 3


def test_subspace_proximal_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        subspace_proximal(np.ones((4, 4)), np.ones((4, 2)), 0.1, beta=0.0)


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_a_non_finite_gate_fails_in_subspace_proximal(beta):
    u = np.random.default_rng(35).standard_normal((6, 9))
    with pytest.raises(ValueError, match="^beta must be finite$"):
        subspace_proximal(u, np.eye(6)[:, :2], 0.1, beta)
    # a state carrying it reaches the same check in the first inner step
    with pytest.raises(ValueError, match="^beta must be finite$"):
        lrsp_apply(u, 0.1, _config(r=2, kappa=4), LrspState(beta=beta))


def test_fusion_weights_properties():
    w = fusion_weights([0.3, 0.3, 0.3], nu=10.0)
    assert np.allclose(w, 1.0 / 3.0, rtol=1e-12)
    rng = np.random.default_rng(18)
    r = rng.uniform(0.0, 1.0, 6)
    w = fusion_weights(r, nu=5.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)
    sharp = fusion_weights(r, nu=1e3)
    assert sharp.argmax() == r.argmin()
    assert sharp.max() > 0.999


def test_fusion_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        fusion_weights([], nu=1.0)
    with pytest.raises(ValueError):
        fusion_weights([0.1], nu=0.0)


# -- the assembled operator --------------------------------------------------


def test_lrsp_apply_zero_matrix():
    cfg = _config(r=3, kappa=5, inner_steps=2, c_beta=0.5, beta1=0.5)
    out, state, diag = lrsp_apply(np.zeros((6, 8)), 0.5, cfg)
    assert np.array_equal(out, np.zeros((6, 8)))
    assert all(s.rho_hat == 0.0 for s in diag.steps)
    assert all(s.n_completed == 3 for s in diag.steps)
    assert state.beta == 0.5 + 0.5 + 0.5
    assert np.array_equal(state.memory_g, np.full(8, 0.5))


def test_lrsp_apply_full_budget_saturated_gate_matches_svt():
    rng = np.random.default_rng(21)
    u = rng.standard_normal((16, 24))
    cfg = LrspConfig(
        r=16, kappa=24, inner_steps=1, c_beta=0.0, beta1=EXACT_GATE_BETA, seed=3
    )
    out, _, _ = lrsp_apply(u, 0.5, cfg)
    ref = svt_full(u, 0.5)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_lrsp_apply_recovers_low_rank_input_at_zero_theta():
    rng = np.random.default_rng(22)
    u = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 30))
    cfg = _config(r=4, kappa=30, inner_steps=3)
    out, _, _ = lrsp_apply(u, 0.0, cfg)
    assert np.linalg.norm(out - u) <= 1e-8 * np.linalg.norm(u)


def test_lrsp_apply_output_is_fusion_weighted_sum_of_proposals():
    # rebuild the T = 3 proposals from the public helpers and the seeds that
    # lrsp_apply documents, then fuse them by their fusion weights
    rng = np.random.default_rng(19)
    u = rng.standard_normal((10, 40))
    cfg = _config(r=3, kappa=12, inner_steps=3, c_beta=0.7, seed=5)
    out, _, diag = lrsp_apply(u, 0.4, cfg)
    g = column_importance(u, None, cfg.mu)
    scores = score_columns(u, cfg.seed)
    beta = cfg.beta1
    proposals = []
    rho_hats = []
    for t in (1, 2, 3):
        omega = build_selector(g, soft_topk(scores, cfg.kappa, temperature(t, cfg)), cfg.kappa)
        q = orthonormal_subspace(u, omega, cfg.r, seed=[cfg.seed, 202, t]).q
        rho = residual_ratio(u, q, g, cfg.probes, [cfg.seed, 101, t])
        proposals.append(subspace_proximal(u, q, 0.4, beta))
        rho_hats.append(rho)
        beta += cfg.c_beta * (1.0 - rho)
    weights = fusion_weights(rho_hats, cfg.nu)
    assert [s.weight for s in diag.steps] == list(weights)
    want = sum(w * p for w, p in zip(weights, proposals))
    assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)


def test_lrsp_apply_is_bitwise_deterministic():
    rng = np.random.default_rng(23)
    u = rng.standard_normal((9, 15))
    cfg = _config(r=3, kappa=7, inner_steps=3, seed=9)
    out1, st1, d1 = lrsp_apply(u, 0.5, cfg)
    out2, st2, d2 = lrsp_apply(u, 0.5, cfg)
    assert np.array_equal(out1, out2)
    assert st1.beta == st2.beta
    assert [s.rho_hat for s in d1.steps] == [s.rho_hat for s in d2.steps]
    assert [s.weight for s in d1.steps] == [s.weight for s in d2.steps]


def test_lrsp_apply_output_rank_bounded():
    rng = np.random.default_rng(24)
    u = rng.standard_normal((12, 40))
    cfg = _config(r=3, kappa=10, inner_steps=2)
    out, _, _ = lrsp_apply(u, 0.5, cfg)
    assert numerical_rank(out) <= 6


def test_lrsp_apply_never_expands_the_norm():
    rng = np.random.default_rng(25)
    for seed in range(8):
        u = rng.standard_normal((8, 20))
        cfg = _config(r=4, kappa=12, inner_steps=2, seed=seed)
        out, _, _ = lrsp_apply(u, 0.3, cfg)
        assert np.linalg.norm(out) <= np.linalg.norm(u) + 1e-9


def test_lrsp_apply_gate_grows_monotonically():
    rng = np.random.default_rng(26)
    u = rng.standard_normal((10, 18))
    cfg = _config(r=4, kappa=9, inner_steps=4, c_beta=0.7, beta1=0.5)
    _, state, diag = lrsp_apply(u, 0.5, cfg)
    betas = [s.beta for s in diag.steps]
    assert betas[0] == 0.5
    assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
    assert state.beta > betas[-1]


def test_lrsp_apply_memory_threads_through_states():
    rng = np.random.default_rng(27)
    u1 = rng.standard_normal((7, 11))
    u2 = rng.standard_normal((7, 11))
    cfg = _config(r=3, kappa=6, mu=0.3)
    _, st1, _ = lrsp_apply(u1, 0.5, cfg)
    assert np.array_equal(st1.memory_g, column_importance(u1, None, 0.3))
    _, st2, _ = lrsp_apply(u2, 0.5, cfg, st1)
    assert np.array_equal(st2.memory_g, column_importance(u2, st1.memory_g, 0.3))


def test_lrsp_apply_validates_dimensions():
    cfg = _config(r=3, kappa=6)
    with pytest.raises(DimensionError):
        lrsp_apply(np.ones((8, 5)), 0.5, cfg)  # kappa > n
    with pytest.raises(DimensionError):
        lrsp_apply(np.ones((2, 8)), 0.5, cfg)  # r > d
    with pytest.raises(DimensionError):
        lrsp_apply(np.ones((8, 8)), 0.5, cfg, LrspState(beta=0.5, memory_g=np.full(3, 0.5)))


def _omega():
    return Selector(np.array([1, 4, 6]), np.array([0.3, 0.0, 0.2]))


# Every public helper that reads columns of the matrix, called with the
# matrix; the bad entry goes into column 4, which each of them reads.
NON_FINITE_CALLS = {
    "column_importance": lambda u: column_importance(u, None, 0.5),
    "score_columns": lambda u: score_columns(u, 3),
    "sparse_pool": lambda u: sparse_pool(u, _omega()),
    "orthonormal_subspace": lambda u: orthonormal_subspace(u, _omega(), 2),
    "residual_ratio": lambda u: residual_ratio(u, np.eye(6)[:, :2], np.full(9, 0.5), 4, 0),
    "subspace_proximal": lambda u: subspace_proximal(u, np.eye(6)[:, :2], 0.5, 1.0),
    "subspace_proximal-theta0": lambda u: subspace_proximal(u, np.eye(6)[:, :2], 0.0, 1.0),
    "lrsp_apply": lambda u: lrsp_apply(u, 0.5, _config(r=2, kappa=4)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_helpers_reject_non_finite_entries(name, bad):
    u = np.random.default_rng(32).standard_normal((6, 9))
    NON_FINITE_CALLS[name](u)  # finite input passes
    u[3, 4] = bad
    # scipy's QR words its finiteness check as "must not contain infs or NaNs"
    with pytest.raises(ValueError, match="finite|NaNs"), np.errstate(invalid="ignore"):
        NON_FINITE_CALLS[name](u)


def test_lrsp_diagnostics_contents_and_serialization():
    rng = np.random.default_rng(28)
    u = rng.standard_normal((8, 12))
    cfg = _config(r=3, kappa=6, inner_steps=3)
    _, _, diag = lrsp_apply(u, 0.5, cfg)
    assert [s.t for s in diag.steps] == [1, 2, 3]
    assert [s.tau for s in diag.steps] == [temperature(t, cfg) for t in (1, 2, 3)]
    assert sum(s.weight for s in diag.steps) == pytest.approx(1.0, abs=1e-12)
    assert diag.total_elapsed_ns >= sum(s.elapsed_ns for s in diag.steps) >= 0


@pytest.mark.parametrize("theta", [-0.1, np.nan, np.inf])
def test_lrsp_apply_rejects_a_negative_or_non_finite_threshold(theta, monkeypatch):
    def no_work(*args):
        raise AssertionError("the threshold must be checked before any work")

    monkeypatch.setattr("specrank.lrsp.column_importance", no_work)
    u = np.random.default_rng(33).standard_normal((6, 9))
    with pytest.raises(ValueError, match="shrinkage threshold must be finite and >= 0"):
        lrsp_apply(u, theta, _config(r=2, kappa=4))


def test_config_validation():
    with pytest.raises(ValueError):
        LrspConfig(r=5, kappa=4)
    with pytest.raises(ValueError):
        LrspConfig(r=2, kappa=4, gamma=1.0)
    with pytest.raises(ValueError):
        LrspConfig(r=2, kappa=4, beta1=0.0)
    with pytest.raises(ValueError):
        LrspConfig(r=2, kappa=4, inner_steps=0)
    with pytest.raises(ValueError):
        LrspConfig(r=2, kappa=4, tau_min=0.0)
    with pytest.raises(ValueError, match="mu must lie in"):
        LrspConfig(r=2, kappa=4, mu=1.5)
