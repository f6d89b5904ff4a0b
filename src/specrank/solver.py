"""Unfolded proximal-gradient loop for RGB-to-spectral reconstruction.

Each stage takes a physics-guided gradient step on the data term, moves to
transform coordinates, applies a nuclear-norm proximal, and maps back.  In
exact mode that proximal is singular-value thresholding with threshold
lambda * eta, computed from the B x B Gram matrix (:func:`svt_gram`), so
every stage is one ISTA step on the composite objective; subspace mode runs
the budgeted operator of :mod:`specrank.lrsp` from the configured budget.
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
from .lrsp import LrspConfig, LrspDiagnostics, LrspState, lrsp_apply
from .svt import nuclear_norm, svt_gram
from .transform import TransformKind, analyze, synthesize


class InitMode(enum.Enum):
    ZEROS = "zeros"
    ADJOINT = "adjoint"
    PSEUDOINVERSE = "pseudoinverse"


class SolverMode(enum.Enum):
    SUBSPACE = "subspace"
    EXACT = "exact"


@dataclass(frozen=True)
class SolverConfig:
    """Static solve parameters.

    ``eta`` is "auto" (reciprocal of the squared spectral norm of phi), a
    single positive step size, or one per stage.  ``lrsp`` configures the
    subspace proximal; exact mode ignores it and may omit it.
    ``memory_mu`` is the decay of the cross-stage importance memory.
    """

    stages: int
    eta: object = "auto"
    lam: float = 0.0
    transform: TransformKind = TransformKind.IDENTITY
    lrsp: LrspConfig | None = None
    init: InitMode = InitMode.PSEUDOINVERSE
    mode: SolverMode = SolverMode.SUBSPACE
    memory_mu: float = 0.5

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("lam must be finite and >= 0")
        if not 0.0 <= self.memory_mu <= 1.0:
            raise ValueError("memory_mu must lie in [0, 1]")
        if self.mode is SolverMode.SUBSPACE and self.lrsp is None:
            raise ValueError("subspace mode requires an LrspConfig")
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
    diagnostics, resolved step sizes, and timings."""

    objectives: tuple[float, ...]
    fidelities: tuple[float, ...]
    stage_elapsed_ns: tuple[int, ...]
    lrsp: tuple[LrspDiagnostics, ...]
    eta: tuple[float, ...]
    total_elapsed_ns: int
    diverged: bool = False
    diverged_stage: int | None = None

    def __post_init__(self):
        k = len(self.objectives)
        if not (len(self.fidelities) == len(self.stage_elapsed_ns) == len(self.lrsp) == len(self.eta) == k):
            raise DimensionError("report columns must all have one entry per stage")


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
    resid = RgbImage(pred.data - x.data, x.h, x.w)
    back = apply_phi_adjoint(op, resid)
    return SpectralCube(y.data - eta * back.data, y.h, y.w)


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


def objective(
    y: SpectralCube, op: ForwardOperator, x: RgbImage, lam: float, kind: TransformKind
) -> float:
    """Data fidelity plus lam times the nuclear norm in transform coordinates."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError("lam must be finite and >= 0")
    return data_fidelity(y, op, x) + lam * nuclear_norm(analyze(y, kind))


def _resolve_eta(config: SolverConfig, op: ForwardOperator) -> tuple[float, ...]:
    if isinstance(config.eta, str):
        sigma_sq = spectral_norm_sq(op, tol=1e-12, max_iter=10_000)
        if sigma_sq <= 0.0:
            raise NumericError("cannot pick a step size for a zero forward operator")
        return (1.0 / sigma_sq,) * config.stages
    if np.isscalar(config.eta):
        return (float(config.eta),) * config.stages
    return tuple(config.eta)


def unfold_solve(x: RgbImage, op: ForwardOperator, config: SolverConfig):
    """Run the staged reconstruction; returns the final cube and its report.

    A warning (and report flags) mark divergence: the iterate norm exceeding
    ten times the early-iterate scale, which a too-large step size produces.
    """
    t_start = time.perf_counter_ns()
    etas = _resolve_eta(config, op)
    y = initialize(x, op, config.init)
    if y.bands != op.bands:
        raise DimensionError("initializer returned a cube with the wrong band count")
    exact = config.mode is SolverMode.EXACT
    state = None if exact else LrspState(beta=config.lrsp.beta1, mu=config.memory_mu)

    objectives = []
    fidelities = []
    elapsed = []
    diags = []
    norm_trail = [float(np.linalg.norm(y.data))]
    diverged_stage = None
    for k in range(1, config.stages + 1):
        t_stage = time.perf_counter_ns()
        eta_k = etas[k - 1]
        r_cube = gradient_step(y, op, x, eta_k)
        u = analyze(r_cube, config.transform)
        if exact:
            t_prox = time.perf_counter_ns()
            out = svt_gram(u, config.lam * eta_k)
            diag = LrspDiagnostics(steps=(), total_elapsed_ns=time.perf_counter_ns() - t_prox)
        else:
            out, state, diag = lrsp_apply(u, config.lrsp, state)
        if not np.all(np.isfinite(out)):
            raise NumericError(f"stage {k}: proximal output is not finite")
        y = synthesize(out, config.transform, x.h, x.w)
        obj = objective(y, op, x, config.lam, config.transform)
        if not np.isfinite(obj):
            raise NumericError(f"stage {k}: objective is not finite")
        objectives.append(obj)
        fidelities.append(data_fidelity(y, op, x))
        diags.append(diag)
        elapsed.append(time.perf_counter_ns() - t_stage)
        norm_trail.append(float(np.linalg.norm(y.data)))
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
        diverged=diverged_stage is not None,
        diverged_stage=diverged_stage,
    )
    return y, report
