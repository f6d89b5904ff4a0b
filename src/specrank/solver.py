"""Unfolded proximal-gradient loop for RGB-to-spectral reconstruction.

Each stage takes a physics-guided gradient step of size eta_k on the data term
and applies a nuclear-norm proximal with threshold lambda * eta_k to the B x N
iterate: one ISTA step per stage on the composite objective.  A solve is exact
exactly when ``SolverConfig.lrsp`` is None: that proximal is then
singular-value thresholding from the B x B Gram matrix (:func:`svt_gram`).
Otherwise every stage runs the budgeted operator of :mod:`specrank.lrsp`,
configured by that :class:`LrspConfig` and threading its state from stage to
stage.  The loop runs on plain matrices with one residual per stage: inputs are
checked on entry, the iterate once per stage (a failure in stage k is a
:class:`NumericError` naming it), and the cube is built on return.
"""

from __future__ import annotations

import enum
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError
from .forward_model import (
    ForwardOperator,
    RgbImage,
    SpectralCube,
    apply_phi,
    apply_phi_adjoint,
    spectral_norm_sq,
)
from .lrsp import LrspConfig, LrspDiagnostics, lrsp_apply
from .svt import nuclear_norm, svt_gram


class InitMode(enum.Enum):
    ZEROS = "zeros"
    ADJOINT = "adjoint"
    PSEUDOINVERSE = "pseudoinverse"


@dataclass(frozen=True)
class SolverConfig:
    """Static solve parameters.

    ``eta`` is "auto" (reciprocal of the squared spectral norm of phi), a
    single positive step size, or one per stage.  ``lrsp`` configures the
    budgeted subspace proximal; None selects exact singular-value
    thresholding.
    """

    stages: int
    eta: object = "auto"
    lam: float = 0.0
    lrsp: LrspConfig | None = None
    init: InitMode = InitMode.PSEUDOINVERSE

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("lam must be finite and >= 0")
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ValueError(f"eta must be 'auto', a number, or a sequence, got {self.eta!r}")
        elif np.isscalar(self.eta):
            if not (np.isfinite(self.eta) and float(self.eta) > 0.0):
                raise ValueError("eta must be > 0")
        else:
            etas = tuple(float(e) for e in self.eta)
            if len(etas) != self.stages:
                raise ValueError(f"need {self.stages} step sizes, got {len(etas)}")
            if not all(np.isfinite(e) and e > 0.0 for e in etas):
                raise ValueError("every step size must be finite and > 0")
            object.__setattr__(self, "eta", etas)


@dataclass(frozen=True)
class SolveReport:
    """Per-stage evidence trail: objective, data fidelity, proximal
    diagnostics, resolved step sizes, and timings; :func:`unfold_solve`
    gives every column one entry per stage."""

    objectives: tuple[float, ...]
    fidelities: tuple[float, ...]
    stage_elapsed_ns: tuple[int, ...]
    lrsp: tuple[LrspDiagnostics, ...]
    eta: tuple[float, ...]
    total_elapsed_ns: int
    diverged_stage: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_stage is not None


def report_csv_lines(report: SolveReport) -> list[str]:
    lines = ["stage,objective,fidelity,elapsed_ns"]
    for k, (obj, fid, el) in enumerate(
        zip(report.objectives, report.fidelities, report.stage_elapsed_ns), start=1
    ):
        lines.append(f"{k},{format(obj, '.17g')},{format(fid, '.17g')},{el}")
    return lines


def gradient_step(y: SpectralCube, op: ForwardOperator, x: RgbImage, eta: float) -> SpectralCube:
    """One descent step on the data term: y - eta * phi^T (phi y - x)."""
    eta = float(eta)
    if not (np.isfinite(eta) and eta > 0.0):
        raise ValueError("eta must be finite and > 0")
    if (y.h, y.w) != (x.h, x.w):
        raise DimensionError(f"cube dims {(y.h, y.w)} do not match image dims {(x.h, x.w)}")
    pred = apply_phi(op, y)
    back = op.phi.T @ (pred.data - x.data)
    return SpectralCube(y.data - eta * back, y.h, y.w)


def initialize(x: RgbImage, op: ForwardOperator, mode: InitMode) -> SpectralCube:
    """Starting cube: zeros, adjoint lift, or pseudoinverse lift."""
    if mode is InitMode.ZEROS:
        return SpectralCube(np.zeros((op.bands, x.pixels)), x.h, x.w)
    if mode is InitMode.ADJOINT:
        return apply_phi_adjoint(op, x)
    if mode is InitMode.PSEUDOINVERSE:
        return SpectralCube(np.linalg.pinv(op.phi) @ x.data, x.h, x.w)
    raise ValueError(f"unknown init mode: {mode!r}")


def data_fidelity(y: SpectralCube, op: ForwardOperator, x: RgbImage) -> float:
    """Half squared Frobenius residual of the forward model."""
    if (y.h, y.w) != (x.h, x.w):
        raise DimensionError(f"cube dims {(y.h, y.w)} do not match image dims {(x.h, x.w)}")
    pred = apply_phi(op, y)
    return 0.5 * float(np.linalg.norm(pred.data - x.data) ** 2)


def objective(y: SpectralCube, op: ForwardOperator, x: RgbImage, lam: float) -> float:
    """Data fidelity plus lam times the nuclear norm of the cube."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and >= 0")
    return data_fidelity(y, op, x) + lam * nuclear_norm(y.data)


# No caller: analyze and synthesize stay because perfbench/tracing.py wraps both.
def analyze(y: SpectralCube) -> np.ndarray:
    """The cube's B x N matrix, not copied: the proximals never write their input."""
    return y.data


def synthesize(u: np.ndarray, h: int, w: int) -> SpectralCube:
    """Wrap a B x N matrix as a cube with spatial dims (h, w)."""
    return SpectralCube(u, h, w)


def _resolve_eta(config: SolverConfig, op: ForwardOperator) -> tuple[float, ...]:
    if isinstance(config.eta, str):
        sigma_sq = spectral_norm_sq(op)
        eta = 1.0 / sigma_sq if sigma_sq > 0.0 else np.inf
        if not np.isfinite(eta):
            raise NumericError(f"no finite step size 1/||phi||^2 for ||phi||^2 = {sigma_sq:.3g}")
        return (eta,) * config.stages
    if np.isscalar(config.eta):
        return (float(config.eta),) * config.stages
    return tuple(config.eta)


def unfold_solve(x: RgbImage, op: ForwardOperator, config: SolverConfig):
    """Run the staged reconstruction; returns the final cube and its report.

    Both modes shrink by ``lam * eta_k``, so each stage descends the reported
    objective (in subspace mode once ``r`` >= rank(phi)).  The iterate y and
    its residual ``phi @ y - x`` stay plain arrays between the checks on entry
    and the cube (fresh, read-only) built on return.  The objective's nuclear
    norm, which raises on a NaN or infinite entry, is the only finiteness check
    on the iterate.  A warning and ``report.diverged_stage`` mark divergence:
    the iterate norm exceeding ten times the early-iterate scale, which a
    too-large step size produces.
    """
    t_start = time.perf_counter_ns()
    etas = _resolve_eta(config, op)
    y = initialize(x, op, config.init).data
    r = op.phi @ y - x.data
    state = None

    objectives = []
    fidelities = []
    elapsed = []
    diags = []
    diverged_stage = None
    # Each stage result below is checked for finiteness and raised as a
    # NumericError, so numpy's overflow warnings would only add stderr lines.
    with np.errstate(over="ignore", invalid="ignore"):
        norm_trail = [float(np.linalg.norm(y))]
        for k in range(1, config.stages + 1):
            t_stage = time.perf_counter_ns()
            eta_k = etas[k - 1]
            theta_k = config.lam * eta_k
            try:
                # gradient_step and objective() on one shared residual
                u = y - eta_k * (op.phi.T @ r)
                if config.lrsp is None:
                    t_prox = time.perf_counter_ns()
                    y = svt_gram(u, theta_k)
                    diag = LrspDiagnostics(steps=(), total_elapsed_ns=time.perf_counter_ns() - t_prox)
                else:
                    y, state, diag = lrsp_apply(u, theta_k, config.lrsp, state)
                r = op.phi @ y - x.data
                fid = 0.5 * float(np.linalg.norm(r) ** 2)
                obj = fid + config.lam * nuclear_norm(y)
            except DimensionError:
                raise  # a budget or rank that does not fit the cube is a usage error
            except ValueError as e:
                raise NumericError(f"stage {k}: {e}") from e
            if not np.isfinite(obj):
                raise NumericError(f"stage {k}: objective is not finite")
            objectives.append(obj)
            fidelities.append(fid)
            diags.append(diag)
            elapsed.append(time.perf_counter_ns() - t_stage)
            norm_trail.append(float(np.linalg.norm(y)))
            if diverged_stage is None and k >= 2:
                baseline = max(norm_trail[0], norm_trail[1], 1e-30)
                if norm_trail[-1] > 10.0 * baseline:
                    diverged_stage = k
    if diverged_stage is not None:
        warnings.warn(
            f"iterate norm grew more than tenfold by stage {diverged_stage}; "
            "the step size is likely too large",
            stacklevel=2,
        )
    report = SolveReport(
        objectives=tuple(objectives),
        fidelities=tuple(fidelities),
        stage_elapsed_ns=tuple(elapsed),
        lrsp=tuple(diags),
        eta=etas,
        total_elapsed_ns=time.perf_counter_ns() - t_start,
        diverged_stage=diverged_stage,
    )
    return SpectralCube(y, x.h, x.w), report
