import numpy as np
import pytest
from _oracles import numerical_rank

from specrank.svt import nuclear_norm, svt_full, svt_gram


def test_svt_full_diagonal_case():
    m = np.diag([3.0, 1.0])
    assert np.allclose(svt_full(m, 1.0), np.diag([2.0, 0.0]))


def test_svt_full_zero_theta_reconstructs():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 7))
    assert np.allclose(svt_full(m, 0.0), m, atol=1e-10)


def test_svt_full_is_the_proximal_minimizer():
    # the output must beat random perturbations on 0.5||z - m||^2 + theta ||z||_*
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 9))
    theta = 0.5
    z = svt_full(m, theta)

    def prox_objective(cand):
        return 0.5 * np.linalg.norm(cand - m) ** 2 + theta * nuclear_norm(cand)

    base = prox_objective(z)
    for _ in range(1000):
        pert = z + 0.01 * np.linalg.norm(m) * rng.standard_normal((6, 9))
        assert base <= prox_objective(pert)


def test_svt_full_rejects_non_matrix():
    with pytest.raises(ValueError):
        svt_full(np.zeros(3), 0.1)


@pytest.mark.parametrize("svt", [svt_full, svt_gram])
@pytest.mark.parametrize("theta", [-0.1, float("nan"), float("inf")])
def test_svt_rejects_a_negative_or_non_finite_threshold(svt, theta):
    with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
        svt(np.eye(3), theta)


def test_nuclear_norm_values():
    assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0)
    assert nuclear_norm(np.zeros((4, 2))) == 0.0


def test_nuclear_norm_rank_one():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    expected = np.linalg.norm(u) * np.linalg.norm(v)
    assert nuclear_norm(np.outer(u, v)) == pytest.approx(expected, abs=1e-10)


def test_svt_full_non_expansive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((7, 5))
        lhs = np.linalg.norm(svt_full(a, 0.7) - svt_full(b, 0.7))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


def test_svt_full_rank_non_increasing_in_theta():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 12))
    ranks = [numerical_rank(svt_full(m, t)) for t in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]]
    assert all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))


def test_svt_full_vanishes_above_top_singular_value():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    top = np.linalg.svd(m, compute_uv=False)[0]
    assert np.array_equal(svt_full(m, top * 1.000001), np.zeros((6, 6)))


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    rng = np.random.default_rng(6)
    low = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
    assert numerical_rank(low) == 3


# -- Gram-matrix kernels against the LAPACK oracle (svt_full, np.linalg.svd) -

EPS = np.finfo(float).eps


def _oracle_cases():
    rng = np.random.default_rng(20)
    low = rng.standard_normal((31, 3)) @ rng.standard_normal((3, 4096))
    return {
        "wide": rng.standard_normal((12, 40)),
        "tall": rng.standard_normal((50, 9)),
        "rank3-31x4096": low,
    }


@pytest.mark.parametrize("name", ["wide", "tall", "rank3-31x4096"])
def test_svt_gram_matches_lapack(name):
    m = _oracle_cases()[name]
    s = np.linalg.svd(m, compute_uv=False)
    for theta in (0.05 * s[0], 0.3 * s[0], 0.5 * (s[1] + s[2])):
        ref = svt_full(m, theta)
        got = svt_gram(m, theta)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        # the Frobenius bound stated in svt_gram's docstring
        assert np.linalg.norm(got - ref) <= 10 * min(m.shape) * EPS * s[0] ** 2 / theta


@pytest.mark.parametrize("name", ["wide", "tall", "rank3-31x4096"])
def test_nuclear_norm_matches_lapack(name):
    m = _oracle_cases()[name]
    ref = np.linalg.svd(m, compute_uv=False).sum()
    assert nuclear_norm(m) == pytest.approx(ref, rel=1e-10)


def test_svt_gram_zero_matrix_and_theta_edges():
    assert np.array_equal(svt_gram(np.zeros((4, 9)), 0.5), np.zeros((4, 9)))
    m = np.random.default_rng(21).standard_normal((6, 15))
    same = svt_gram(m, 0.0)
    assert np.array_equal(same, m) and same is not m
    top = np.linalg.svd(m, compute_uv=False)[0]
    assert np.array_equal(svt_gram(m, top * 1.000001), np.zeros_like(m))
    assert np.array_equal(svt_gram(m.T, top * 1.000001), np.zeros_like(m.T))


def test_svt_gram_guard_returns_the_full_svd_result():
    # theta below sqrt(k * eps) * sigma_max: Gram round-off could survive
    # the threshold, so the LAPACK result is returned unchanged
    m = np.random.default_rng(22).standard_normal((31, 500))
    top = np.linalg.svd(m, compute_uv=False)[0]
    theta = 0.5 * np.sqrt(31 * EPS) * top
    assert np.array_equal(svt_gram(m, theta), svt_full(m, theta))
    assert np.array_equal(svt_gram(m.T, theta), svt_full(m.T, theta))


def test_nuclear_norm_small_tail_falls_back_to_lapack():
    # singular values ~1e-9 sigma_max vanish in the Gram matrix but add
    # 1e-8 of the sum, which the tail bound catches
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    v, _ = np.linalg.qr(rng.standard_normal((300, 10)))
    s = np.concatenate([[1.0, 0.5], np.full(8, 1e-9)])
    m = (u * s) @ v.T
    ref = np.linalg.svd(m, compute_uv=False).sum()
    assert abs(ref - 1.5) > 1e-9
    assert nuclear_norm(m) == pytest.approx(ref, rel=1e-12)
    assert nuclear_norm(m.T) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-160, 1e200])
def test_gram_kernels_fall_back_when_the_gram_matrix_under_or_overflows(scale):
    m = scale * np.random.default_rng(24).standard_normal((6, 20))
    s = np.linalg.svd(m, compute_uv=False)
    assert nuclear_norm(m) == pytest.approx(s.sum(), rel=1e-10)
    theta = 0.5 * (s[1] + s[2])
    ref = svt_full(m, theta) / scale
    got = svt_gram(m, theta) / scale
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gram_kernels_reject_non_finite_input():
    m = np.ones((3, 5))
    m[1, 2] = np.nan
    with pytest.raises(ValueError):
        svt_gram(m, 0.1)
    with pytest.raises(ValueError):
        svt_gram(m, 0.0)
    with pytest.raises(ValueError):
        nuclear_norm(m)
    m[1, 2] = np.inf
    with pytest.raises(ValueError):
        nuclear_norm(m.T)
