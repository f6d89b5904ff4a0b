"""Low-rank subspace proximal operator.

Replaces full singular-value thresholding with shrinkage inside an adaptively
chosen column subspace: score the columns, softly select a budget of them,
orthonormalize the weighted sketch, shrink in the r-dimensional coordinates,
and fuse the inner proposals by their estimated projection residuals.  Every
random element is drawn from seeded generators, so repeated calls with the
same inputs are bitwise identical.

Every setting lives in :class:`LrspConfig`, the memory decay ``mu`` included;
the threshold is :func:`lrsp_apply`'s ``theta``, as in the SVT kernels, and
:class:`LrspState` carries the gate and the importance memory between calls.

The shrink of the r x n coordinates is :func:`specrank.svt.svt_gram` (an
``eigh`` of their r x r Gram matrix, with a stated error bound and a LAPACK
fall-back); :func:`specrank.svt.svt_full` stays the reference it is tested
against.  The d x n matrix is not scanned for finiteness as a whole: each
helper checks a quantity it computes anyway and that every NaN or Inf entry
of the columns it reads reaches (column norms, scores, the probe product,
the sketch, the Gram diagonal of the coordinates).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import expit

from .errors import DegenerateSelectionError, DimensionError, NumericError
# svt_full is not called here; it stays a module attribute because
# perfbench/tracing.py wraps specrank.lrsp.svt_full.
from .svt import _as_matrix, _check_threshold, svt_full, svt_gram


@dataclass(frozen=True)
class LrspConfig:
    """Static parameters of the subspace proximal.

    ``r`` is the target rank, ``kappa`` the column budget, ``probes`` the
    Gaussian probe count for the residual estimate, and ``inner_steps`` the
    number of proposals generated and fused per application (the threshold is
    :func:`lrsp_apply`'s argument).  The temperature follows
    ``max(tau_min, tau0 * gamma**(t-1))``; ``beta1`` seeds the cumulative
    gate argument which grows by ``c_beta * (1 - rho)`` per inner step,
    ``nu`` sharpens the residual-aware fusion, and ``mu`` is the decay of the
    column-importance memory carried from one application to the next.
    """

    r: int
    kappa: int
    probes: int = 8
    inner_steps: int = 3
    tau0: float = 1.0
    gamma: float = 0.5
    tau_min: float = 0.1
    beta1: float = 0.5
    c_beta: float = 0.5
    nu: float = 10.0
    mu: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.r < 1 or self.kappa < 1 or self.probes < 1 or self.inner_steps < 1:
            raise ValueError("r, kappa, probes, and inner_steps must all be >= 1")
        if self.r > self.kappa:
            raise ValueError(f"target rank {self.r} exceeds column budget {self.kappa}")
        if not (self.tau0 > 0.0 and self.tau_min > 0.0):
            raise ValueError("tau0 and tau_min must be > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")
        if not (np.isfinite(self.beta1) and self.beta1 > 0.0):
            raise ValueError("beta1 must be finite and > 0")
        if self.c_beta < 0.0:
            raise ValueError("c_beta must be >= 0")
        if not self.nu > 0.0:
            raise ValueError("nu must be > 0")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class LrspState:
    """Cross-call state: cumulative gate argument, importance memory and probes.

    ``memory_g`` is the exponential moving average of column importances from
    previous applications (None before the first one); its decay is
    ``LrspConfig.mu``.  :func:`lrsp_apply` builds the state: ``beta`` grows
    from ``LrspConfig.beta1`` by finite steps and ``memory_g`` is what
    :func:`column_importance` returned, in [0, 1].  ``probe_blocks`` is the
    :func:`residual_ratio` cache that every state of one chain of
    applications shares, so each seeded probe block is drawn once per solve.
    The record checks nothing: :func:`subspace_proximal` rejects a
    non-finite ``beta`` and :func:`column_importance` a memory of the wrong
    length.
    """

    beta: float
    memory_g: np.ndarray | None = None
    probe_blocks: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class Selector:
    """Hard column choice with per-column scalings.

    :func:`build_selector` returns distinct column positions ``indices`` and
    the matching nonnegative ``weights`` (importance gate times
    soft-selection weight), with total mass at most 1.  The record checks
    nothing: :func:`sparse_pool` and :func:`orthonormal_subspace` reject an
    index outside the matrix, and the QR a non-finite weight.
    """

    indices: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal d x r basis built by :func:`orthonormal_subspace`, whose
    orthonormality :func:`subspace_proximal` checks; ``n_completed`` counts
    columns that had to be filled with random directions because the sketch
    was rank deficient."""

    q: np.ndarray
    n_completed: int


@dataclass(frozen=True)
class StepDiagnostics:
    """Record of one inner step; ``weight`` is the fusion weight assigned to
    the step's proposal after all steps completed."""

    t: int
    tau: float
    beta: float
    rho_hat: float
    weight: float
    n_completed: int
    elapsed_ns: int


@dataclass(frozen=True)
class LrspDiagnostics:
    steps: tuple[StepDiagnostics, ...]
    total_elapsed_ns: int


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"matrix entries must be finite ({what} is not)")


def column_importance(u, memory_g, mu: float) -> np.ndarray:
    """Per-column importances in (0, 1) from standardized column norms.

    The raw importance is the sigmoid of the standardized column l2 norm;
    when a memory vector is given (not None) it is blended in with decay
    ``mu`` (the blended vector is also what the memory update stores).
    Raises ValueError when an entry is NaN or infinite (or a column norm
    overflows).
    """
    a = _as_matrix(u)
    norms = np.linalg.norm(a, axis=0)
    _check_finite(norms, "a column norm")
    z = (norms - norms.mean()) / (norms.std() + 1e-12)
    g = expit(z)
    if memory_g is not None:
        memory_g = np.asarray(memory_g, dtype=float)
        if memory_g.shape != g.shape:
            raise DimensionError(
                f"memory has {memory_g.shape[0]} entries but the matrix has {g.shape[0]} columns"
            )
        g = (1.0 - mu) * g + mu * memory_g
    return g


def score_columns(u, seed, lift=None) -> np.ndarray:
    """Selection scores via a fixed seeded random projection.

    Each column is projected through a seeded Gaussian m x d matrix
    (m = min(d, 16)) and scored against a seeded query vector, so scores are
    deterministic per seed, linear in each column, and identical for
    duplicate columns.  With ``lift`` (D x d, orthonormal columns) the
    columns are coordinates of ``lift @ u`` and are scored as those D-row
    columns would be: the m x D projection is drawn and its query row pulled
    back through the lift, ``((q @ p) @ lift) @ u``.
    """
    a = _as_matrix(u)
    d = a.shape[0] if lift is None else lift.shape[0]
    m = min(d, 16)
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, d))
    q = rng.standard_normal(m)
    scores = q @ (p @ a) if lift is None else ((q @ p) @ lift) @ a
    _check_finite(scores, "a score")
    return scores


def soft_topk(s, kappa: int, tau: float) -> np.ndarray:
    """Differentiable top-kappa weights over scores.

    Scores are shifted by the (kappa+1)-th largest value, scaled by the
    temperature, passed through a softplus, and normalized to sum to 1.
    The pivot is a value, so a linear-time partition finds it and ties
    cannot change it.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise DimensionError(f"scores must be 1-d, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n = s.size
    if not 1 <= kappa < n:
        raise ValueError(f"kappa must satisfy 1 <= kappa < {n}, got {kappa}")
    if not tau > 0.0:
        raise ValueError("tau must be > 0")
    pivot = np.partition(s, n - 1 - kappa)[n - 1 - kappa]
    shifted = (s - pivot) / tau
    # softplus via logaddexp keeps large shifted scores from overflowing
    sp = np.logaddexp(0.0, shifted)
    return sp / sp.sum()


def build_selector(g, w, kappa: int) -> Selector:
    """Keep the kappa heaviest soft weights; scale each kept column by g * w.

    Columns are ranked by descending weight, ties toward lower indices, so
    the result equals that of a stable sort of ``-w``; only the kappa
    candidates from a linear-time partition are sorted.
    """
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    if g.ndim != 1 or g.shape != w.shape:
        raise DimensionError("g and w must be 1-d and aligned")
    n = w.size
    if not 1 <= kappa <= n:
        raise ValueError(f"kappa must satisfy 1 <= kappa <= {n}, got {kappa}")
    if not np.all(np.isfinite(w)):
        raise ValueError("column weights must be finite")
    if not np.any(w > 0.0):
        raise DegenerateSelectionError("all column weights are zero")
    top = np.argpartition(-w, kappa - 1)[:kappa]
    # Entries tied with the kappa-th weight may straddle the cut; keep the
    # lowest-indexed of them, as the stable sort does.
    cut = w[top].min()
    above = top[w[top] > cut]
    cand = np.concatenate([above, np.flatnonzero(w == cut)[: kappa - above.size]])
    idx = cand[np.lexsort((cand, -w[cand]))]
    return Selector(idx, g[idx] * w[idx])


def sparse_pool(u, omega: Selector) -> np.ndarray:
    """Weighted sum of the selected columns."""
    a = _as_matrix(u)
    if omega.indices.min() < 0 or omega.indices.max() >= a.shape[1]:
        raise DimensionError(f"selector indices must lie in [0, {a.shape[1]})")
    pooled = a[:, omega.indices] @ omega.weights
    _check_finite(pooled, "the pooled column")
    return pooled


def orthonormal_subspace(u, omega: Selector, r: int, seed=0) -> SubspaceBasis:
    """Orthonormal basis of the selected-and-weighted sketch.

    Column-pivoted QR of the d x kappa sketch supplies the leading
    directions; if the sketch's numerical rank falls short of ``r``, the
    remaining columns are seeded random vectors orthonormalized against the
    computed ones, and the count of such fills is reported.  A NaN or
    infinite entry in a selected column or weight fails the QR's finiteness
    check with ValueError.
    """
    a = _as_matrix(u)
    d, n = a.shape
    if omega.indices.min() < 0 or omega.indices.max() >= n:
        raise DimensionError(f"selector indices must lie in [0, {n})")
    kappa = omega.indices.size
    if r < 1 or r > d or r > kappa:
        raise ValueError(f"rank must satisfy 1 <= r <= min(d={d}, kappa={kappa})")
    sketch = a[:, omega.indices] * omega.weights[None, :]
    qf, rf, _ = scipy.linalg.qr(sketch, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rf))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > max(sketch.shape) * np.finfo(float).eps * diag[0]))
    keep = min(rank, r)
    q = np.empty((d, r))
    q[:, :keep] = qf[:, :keep]
    rng = np.random.default_rng(seed)
    filled = keep
    attempts = 0
    while filled < r:
        attempts += 1
        if attempts > 100 * r:
            raise NumericError("could not complete an orthonormal basis")
        v = rng.standard_normal(d)
        for _ in range(2):
            v = v - q[:, :filled] @ (q[:, :filled].T @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            q[:, filled] = v / nv
            filled += 1
    return SubspaceBasis(q, r - keep)


def residual_ratio(u, q, g, probes: int, seed, cache: dict | None = None) -> float:
    """Probed fraction of importance-weighted energy outside span(q).

    A seeded Gaussian block of ``probes`` columns is scaled per column by the
    importances and pushed through the matrix; the ratio of the projected
    residual to the total (plus 1e-12) lands in [0, 1).  The block depends on
    the seed, the column count and ``probes`` only; a ``cache`` dict keeps
    each block drawn under those three, and a later call finds it there
    instead of drawing it again.
    """
    a = _as_matrix(u)
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    if q.ndim != 2 or q.shape[0] != a.shape[0]:
        raise DimensionError("basis rows must match the matrix")
    if g.shape != (a.shape[1],):
        raise DimensionError("importances must have one entry per column")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    key = (tuple(np.atleast_1d(seed).tolist()), a.shape[1], probes)
    xi = None if cache is None else cache.get(key)
    if xi is None:
        xi = np.random.default_rng(seed).standard_normal((a.shape[1], probes))
        if cache is not None:
            cache[key] = xi
    m = a @ (g[:, None] * xi)
    _check_finite(m, "the probe product")
    resid = m - q @ (q.T @ m)
    return float(np.linalg.norm(resid) / (np.linalg.norm(m) + 1e-12))


def temperature(t: int, config: LrspConfig) -> float:
    """Exponential selection temperature with a floor."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return max(config.tau_min, config.tau0 * config.gamma ** (t - 1))


def subspace_proximal(u, q, theta: float, beta: float) -> np.ndarray:
    """Shrink inside span(q), gated against the plain projection.

    The input is compressed to B = q.T u, singular values of B are
    soft-thresholded, the result is blended with B by the gate
    sigmoid(beta), and mapped back through q.  Output rank is at most the
    basis width.

    The thresholding is :func:`specrank.svt.svt_gram` on the r x n matrix
    B, within that function's error bound of the LAPACK reference
    ``svt_full(B, theta)``.  A NaN or infinite entry of ``u`` reaches B's
    Gram diagonal, so svt_gram hands it to svt_full, which raises
    ValueError.
    """
    a = _as_matrix(u)
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != a.shape[0]:
        raise DimensionError("basis rows must match the matrix")
    if np.abs(q.T @ q - np.eye(q.shape[1])).max() > 1e-8:
        raise ValueError("q columns must be orthonormal")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    b = q.T @ a
    alpha = float(expit(beta))
    b_tilde = (1.0 - alpha) * b + alpha * svt_gram(b, theta)
    return q @ b_tilde


def fusion_weights(rho_hats, nu: float) -> np.ndarray:
    """Softmin weights over residual estimates; sums to 1."""
    r = np.asarray(rho_hats, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("rho_hats must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(r)):
        raise ValueError("rho_hats must be finite")
    if not nu > 0.0:
        raise ValueError("nu must be > 0")
    z = -nu * r
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def check_budget(config: LrspConfig, rows: int, cols: int) -> None:
    """DimensionError unless the rank and column budget fit a rows x cols matrix."""
    if config.kappa > cols:
        raise DimensionError(f"column budget {config.kappa} exceeds {cols} columns")
    if config.r > rows:
        raise DimensionError(f"target rank {config.r} exceeds {rows} rows")


def lrsp_apply(
    u, theta: float, config: LrspConfig, state: LrspState | None = None, *, lift=None
):
    """Run the full subspace proximal at threshold ``theta``: T inner steps plus fusion.

    ``state`` is what the previous application returned; None (the first
    application) starts the gate at ``config.beta1`` with no importance
    memory and an empty probe cache.  Per inner step t: soft column
    selection at the scheduled temperature, sketch orthonormalization (basis
    completion seeded by ``[config.seed, 202, t]``), residual probing (seeded
    by ``[config.seed, 101, t]``, drawn once into the state's cache), the
    gated subspace shrinkage at the current gate argument beta, and then the
    gate increment ``c_beta * (1 - rho)`` with rho the step's probed
    residual; the scores are seeded by ``config.seed``.  With ``kappa``
    equal to the column count the selection is uniform over all columns (the
    soft pivot needs a left-out column), which together with ``r = d`` and a
    saturated gate reproduces full singular-value thresholding.

    Returns the proposals' sum weighted by :func:`fusion_weights` (formed in
    place; this is the package's only fusion), the advanced state, and
    per-step diagnostics.

    Where the budget binds: a stage input of
    :func:`specrank.solver.unfold_solve` lies in span(phi^T), so its rank is
    at most k = rank(phi), 3 for an RGB camera.  With ``r`` >= k the basis
    spans the input and every proposal is its gated exact SVT, so the result
    equals ``(1 - a) u + a svt_full(u, theta)`` with ``a`` the
    fusion-weighted sum of the gates ``sigmoid(beta_t)``; only ``r`` below k
    lets selection, QR, probing and fusion change a solver result.  The
    solver therefore passes ``u`` as its k x N coordinates in an orthonormal
    basis ``lift`` (B x k) of span(phi^T) and keeps the result in those
    coordinates: ``lift @ out`` is, up to rounding, what the B x N matrix
    ``lift @ u`` gives.  The rank and budget are checked against the B rows
    of the lift, then ``r`` is clipped to k (the basis of k x N coordinates
    has at most k columns, so there is nothing to complete at ``r`` > k);
    the scores are those of the B-row columns (:func:`score_columns`), and
    column norms, pivots and probed residuals do not change under the lift.
    """
    t_start = time.perf_counter_ns()
    theta = _check_threshold(theta)
    a = _as_matrix(u)
    d, n = a.shape
    if lift is not None:
        lift = _as_matrix(lift)
        if lift.shape[1] != d:
            raise DimensionError(f"lift has {lift.shape[1]} columns but the matrix has {d} rows")
    check_budget(config, d if lift is None else lift.shape[0], n)
    r = min(config.r, d)

    if state is None:
        state = LrspState(beta=config.beta1)
    g = column_importance(a, state.memory_g, config.mu)
    scores = score_columns(a, config.seed, lift)
    beta = float(state.beta)
    proposals = []
    records = []
    for t in range(1, config.inner_steps + 1):
        t_step = time.perf_counter_ns()
        tau = temperature(t, config)
        if config.kappa == n:
            w = np.full(n, 1.0 / n)
        else:
            w = soft_topk(scores, config.kappa, tau)
        omega = build_selector(g, w, config.kappa)
        basis = orthonormal_subspace(a, omega, r, seed=[config.seed, 202, t])
        rho = residual_ratio(
            a, basis.q, g, config.probes, [config.seed, 101, t], state.probe_blocks
        )
        proposals.append(subspace_proximal(a, basis.q, theta, beta))
        records.append((t, tau, beta, rho, basis.n_completed, time.perf_counter_ns() - t_step))
        beta += config.c_beta * (1.0 - rho)

    weights = fusion_weights([rec[3] for rec in records], config.nu)
    # The proposals are fresh arrays owned here: fuse them in place.
    out = proposals[0]
    out *= weights[0]
    for wt, p in zip(weights[1:], proposals[1:]):
        p *= wt
        out += p
    steps = tuple(
        StepDiagnostics(
            t=rec[0],
            tau=rec[1],
            beta=rec[2],
            rho_hat=rec[3],
            weight=float(wt),
            n_completed=rec[4],
            elapsed_ns=rec[5],
        )
        for rec, wt in zip(records, weights)
    )
    diag = LrspDiagnostics(steps=steps, total_elapsed_ns=time.perf_counter_ns() - t_start)
    new_state = LrspState(beta=beta, memory_g=g, probe_blocks=state.probe_blocks)
    return out, new_state, diag
