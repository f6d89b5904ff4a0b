"""Singular-value shrinkage and the nuclear norm.

``svt_full`` is the LAPACK reference: a full SVD, soft-thresholded and
recomposed.  The Gram-matrix kernels below and the budgeted operator in
:mod:`specrank.lrsp` are tested against it.

``svt_gram`` and ``nuclear_norm`` compute the same quantities from the
eigendecomposition of the k x k Gram matrix of the short side (k = rank(phi),
at most 3, for the solver's k x N coordinates of span(phi^T); k = r for the
r x n subspace coordinates that the budgeted operator shrinks), which costs
two small GEMMs plus an ``eigh`` instead of an SVD of the whole matrix (Cai,
Candes & Shen, SIAM J. Optim. 2010).  Forming the Gram matrix squares the
singular values, so its eigenvalues carry round-off of about
``k * eps * lambda_max``; each function states the error this leaves and
falls back to LAPACK where it is too large.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

_EPS = np.finfo(float).eps
# Below this Gram trace the squared entries lose precision to underflow.
_MIN_GRAM_TRACE = np.finfo(float).tiny / _EPS
# Largest estimated tail contribution, relative to the head sum, that
# nuclear_norm accepts before it recomputes with LAPACK.
_NUCLEAR_TAIL_RTOL = 1e-12


def _check_threshold(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta) or theta < 0.0:
        raise ValueError(f"shrinkage threshold must be finite and >= 0, got {theta}")
    return theta


def _as_matrix(m) -> np.ndarray:
    """``m`` as a float array; DimensionError unless it is 2-d."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _gram_eigh(a: np.ndarray):
    """Ascending eigenpairs of the short-side Gram matrix of ``a``.

    Returns ``(lam, v, wide)`` with ``wide`` true when the Gram matrix is
    ``a @ a.T``, or None when it cannot stand in for an SVD: an empty
    matrix, or a Gram matrix that is non-finite (non-finite entries or
    overflow) or whose trace is in the underflow range.  Non-finite entries
    always reach the Gram diagonal, so this is the only finiteness check.
    """
    wide = a.shape[0] <= a.shape[1]
    with np.errstate(over="ignore"):
        g = a @ a.T if wide else a.T @ a
    if g.size == 0 or not np.all(np.isfinite(g)) or np.trace(g) < _MIN_GRAM_TRACE:
        return None
    lam, v = np.linalg.eigh(g)
    return lam, v, wide


def svt_full(m, theta: float) -> np.ndarray:
    """Singular-value thresholding of a matrix via a full SVD.

    Returns the exact proximal operator of ``theta * ||.||_*`` evaluated
    at ``m``: soft-threshold the singular values and recompose.
    """
    theta = _check_threshold(theta)
    a = _as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise ValueError("svt_full input must be finite")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - theta, 0.0)) @ vt


def svt_gram(m, theta: float) -> np.ndarray:
    """Singular-value thresholding from the short-side Gram matrix.

    With ``G = V diag(lam) V.T`` (``G = m @ m.T`` for a wide ``m``), the
    proximal of ``theta * ||.||_*`` is ``(V f) @ (V.T m)`` where
    ``f = max(1 - theta / sqrt(lam), 0)``; only the kept eigenvectors enter
    the two GEMMs.

    Error bound: with ``theta**2 >= k * eps * lam_max`` every round-off
    eigenvalue is zeroed, and each kept singular value is off by at most
    about ``eps * sigma_max**2 / theta <= sqrt(eps / k) * sigma_max``.  The
    whole result, GEMM rounding included, lies within
    ``10 * k * eps * sigma_max**2 / theta`` of :func:`svt_full`'s in
    Frobenius norm (over random k x n matrices with k <= 31 and thresholds
    down to the guard, the largest ratio to ``k * eps * sigma_max**2 /
    theta`` seen was 6.6).  When ``theta**2 <= k * eps * lam_max``, or when
    the Gram matrix is unusable, the result is :func:`svt_full`'s.
    ``theta == 0`` returns a copy of ``m``.  A NaN or infinite entry raises
    ValueError, as in svt_full.
    """
    theta = _check_threshold(theta)
    a = _as_matrix(m)
    if theta == 0.0:
        if not np.all(np.isfinite(a)):
            raise ValueError("svt_gram input must be finite")
        return a.copy()
    eig = _gram_eigh(a)
    if eig is None:
        return svt_full(a, theta)
    lam, v, wide = eig
    theta_sq = theta * theta
    if theta_sq <= lam.size * _EPS * lam[-1]:
        return svt_full(a, theta)
    keep = lam > theta_sq
    vk = v[:, keep]
    f = 1.0 - theta / np.sqrt(lam[keep])
    if wide:
        return (vk * f) @ (vk.T @ a)
    return ((a @ vk) * f) @ vk.T


def nuclear_norm(m) -> float:
    """Sum of singular values of ``m``, from the short-side Gram matrix.

    Gram eigenvalues above ``k * eps * lam_max`` (the head) contribute their
    square roots.  The rest (the tail) are round-off-sized, so their true
    contribution is bounded from ``m`` itself, not from its square, by
    ``sqrt(n_tail) * ||V_tail.T m||_F``.  When that bound exceeds 1e-12 of
    the head sum, or the Gram matrix is unusable, the sum comes from a
    LAPACK SVD instead.
    """
    a = _as_matrix(m)
    eig = _gram_eigh(a)
    if eig is not None:
        lam, v, wide = eig
        head = lam > lam.size * _EPS * lam[-1]
        total = float(np.sqrt(lam[head]).sum())
        vt = v[:, ~head]
        spill = vt.T @ a if wide else a @ vt
        if np.sqrt(vt.shape[1]) * np.linalg.norm(spill) <= _NUCLEAR_TAIL_RTOL * total:
            return total
    if not np.all(np.isfinite(a)):
        raise ValueError("nuclear_norm input must be finite")
    return float(np.linalg.svd(a, compute_uv=False).sum())
