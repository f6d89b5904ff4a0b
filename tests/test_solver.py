import numpy as np
import pytest

from specrank.errors import NumericError
from specrank.forward_model import ForwardOperator, RgbImage, SpectralCube, apply_phi
from specrank.solver import (
    InitMode,
    SolverConfig,
    SolverMode,
    data_fidelity,
    gradient_step,
    initialize,
    objective,
    report_csv_lines,
    unfold_solve,
)
from specrank.lrsp import LrspConfig
from specrank.svt import nuclear_norm, svt_full
from specrank.transform import TransformKind


def _problem(seed, b=8, h=4, w=8):
    rng = np.random.default_rng(seed)
    op = ForwardOperator(rng.uniform(0.0, 1.0, (3, b)))
    y = SpectralCube(rng.uniform(0.0, 1.0, (b, h * w)), h, w)
    x = apply_phi(op, y)
    return op, y, x


def test_gradient_step_fixed_point():
    op, y, x = _problem(0)
    out = gradient_step(y, op, x, 0.1)
    assert np.array_equal(out.data, y.data)


def test_gradient_step_from_zeros_is_scaled_adjoint():
    op, y, x = _problem(1)
    zero = SpectralCube(np.zeros_like(y.data), y.h, y.w)
    out = gradient_step(zero, op, x, 0.25)
    assert np.allclose(out.data, 0.25 * (op.phi.T @ x.data), rtol=1e-14)


def test_gradient_step_matches_dense_formula():
    rng = np.random.default_rng(2)
    op, _, x = _problem(2)
    y = SpectralCube(rng.standard_normal((8, 32)), 4, 8)
    eta = 0.37
    out = gradient_step(y, op, x, eta)
    want = y.data - eta * op.phi.T @ (op.phi @ y.data - x.data)
    assert np.allclose(out.data, want, atol=1e-12)


def test_gradient_step_rejects_bad_eta_and_dims():
    op, y, x = _problem(3)
    with pytest.raises(ValueError):
        gradient_step(y, op, x, 0.0)
    bad = RgbImage(x.data[:, :16], 4, 4)
    with pytest.raises(Exception):
        gradient_step(y, op, bad, 0.1)


def test_initialize_zeros_and_adjoint():
    op, _, x = _problem(4)
    z = initialize(x, op, InitMode.ZEROS)
    assert np.array_equal(z.data, np.zeros((8, 32)))
    adj = initialize(x, op, InitMode.ADJOINT)
    assert np.allclose(adj.data, op.phi.T @ x.data, rtol=1e-14)


def test_initialize_pseudoinverse_padded_identity():
    op = ForwardOperator(np.hstack([np.eye(3), np.zeros((3, 4))]))
    x = RgbImage(np.arange(12.0).reshape(3, 4), 2, 2)
    y0 = initialize(x, op, InitMode.PSEUDOINVERSE)
    assert np.allclose(y0.data[:3], x.data, atol=1e-12)
    assert np.allclose(y0.data[3:], 0.0, atol=1e-12)


def test_initialize_pseudoinverse_reproduces_observation():
    op, _, x = _problem(5)
    y0 = initialize(x, op, InitMode.PSEUDOINVERSE)
    assert np.allclose(op.phi @ y0.data, x.data, atol=1e-8)


def test_objective_zero_cases():
    op, y, x = _problem(6)
    assert objective(y, op, x, 0.0, TransformKind.IDENTITY) == 0.0
    zero_x = RgbImage(np.zeros_like(x.data), x.h, x.w)
    zero_y = SpectralCube(np.zeros_like(y.data), y.h, y.w)
    assert objective(zero_y, op, zero_x, 2.0, TransformKind.IDENTITY) == 0.0


def test_objective_matches_naive_evaluation():
    rng = np.random.default_rng(7)
    op, _, x = _problem(7)
    y = SpectralCube(rng.standard_normal((8, 32)), 4, 8)
    lam = 0.3
    got = objective(y, op, x, lam, TransformKind.IDENTITY)
    resid = op.phi @ y.data - x.data
    naive = 0.5 * float((resid * resid).sum()) + lam * float(
        np.linalg.svd(y.data, compute_uv=False).sum()
    )
    assert got == pytest.approx(naive, rel=1e-12)
    assert data_fidelity(y, op, x) == pytest.approx(0.5 * float((resid * resid).sum()), rel=1e-12)


def test_unfold_zero_image_stays_at_zero():
    op, _, _ = _problem(8)
    x = RgbImage(np.zeros((3, 32)), 4, 8)
    cfg = SolverConfig(stages=4, lam=0.1, init=InitMode.ZEROS, mode=SolverMode.EXACT)
    y, report = unfold_solve(x, op, cfg)
    assert np.array_equal(y.data, np.zeros((8, 32)))
    assert all(o == 0.0 for o in report.objectives)


def test_unfold_fixed_point_without_regularization():
    op, y_true, x = _problem(9)
    cfg = SolverConfig(stages=5, lam=0.0, init=InitMode.PSEUDOINVERSE, mode=SolverMode.EXACT)
    y, report = unfold_solve(x, op, cfg)
    y0 = initialize(x, op, InitMode.PSEUDOINVERSE)
    assert np.linalg.norm(y.data - y0.data) <= 1e-8 * np.linalg.norm(y0.data)
    assert report.fidelities[-1] <= 1e-12


def test_unfold_exact_mode_equals_hand_rolled_ista():
    rng = np.random.default_rng(10)
    op, _, x = _problem(10)
    lam = 0.05
    cfg = SolverConfig(
        stages=5,
        lam=lam,
        init=InitMode.ZEROS,
        mode=SolverMode.EXACT,
        lrsp=LrspConfig(r=2, kappa=4, theta=9.9),  # ignored in exact mode
    )
    y, report = unfold_solve(x, op, cfg)
    eta = report.eta[0]
    z = np.zeros((8, 32))
    for _ in range(5):
        z = svt_full(z - eta * op.phi.T @ (op.phi @ z - x.data), lam * eta)
    assert np.linalg.norm(y.data - z) <= 1e-8 * (np.linalg.norm(z) + 1.0)


def test_unfold_exact_mode_never_runs_the_budgeted_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact mode called lrsp_apply")

    monkeypatch.setattr("specrank.solver.lrsp_apply", refuse)
    op, _, x = _problem(18)
    cfg = SolverConfig(stages=4, lam=0.05, init=InitMode.ZEROS, mode=SolverMode.EXACT)
    _, report = unfold_solve(x, op, cfg)
    assert len(report.lrsp) == 4
    assert all(d.steps == () and d.total_elapsed_ns > 0 for d in report.lrsp)


def test_unfold_exact_mode_objective_descends():
    for seed in range(10):
        rng = np.random.default_rng([300, seed])
        op = ForwardOperator(rng.uniform(0.0, 1.0, (3, 8)))
        y_true = SpectralCube(rng.uniform(0.0, 1.0, (8, 128)), 8, 16)
        x = apply_phi(op, y_true)
        cfg = SolverConfig(stages=15, lam=0.05, init=InitMode.ZEROS, mode=SolverMode.EXACT)
        y, report = unfold_solve(x, op, cfg)
        start = objective(initialize(x, op, InitMode.ZEROS), op, x, 0.05, TransformKind.IDENTITY)
        trail = (start,) + report.objectives
        assert all(b <= a + 1e-9 for a, b in zip(trail, trail[1:]))


def test_unfold_subspace_mode_runs_and_reports():
    op, y_true, x = _problem(11)
    lrsp = LrspConfig(r=4, kappa=16, theta=0.01, inner_steps=2)
    cfg = SolverConfig(stages=6, lam=0.01, lrsp=lrsp, init=InitMode.PSEUDOINVERSE)
    y, report = unfold_solve(x, op, cfg)
    assert y.dims == y_true.dims
    assert len(report.objectives) == 6
    assert len(report.lrsp) == 6
    assert all(len(d.steps) == 2 for d in report.lrsp)
    assert all(np.isfinite(o) for o in report.objectives)
    assert not report.diverged


def test_unfold_dct_transform_path():
    op, _, x = _problem(12)
    cfg = SolverConfig(
        stages=8,
        lam=0.02,
        transform=TransformKind.SPECTRAL_DCT,
        init=InitMode.ZEROS,
        mode=SolverMode.EXACT,
    )
    y, report = unfold_solve(x, op, cfg)
    assert np.all(np.isfinite(y.data))
    assert report.objectives[-1] <= report.objectives[0] + 1e-9


def test_unfold_flags_divergence_for_oversized_steps():
    op, y_true, x = _problem(13)
    from specrank.forward_model import spectral_norm_sq

    eta = 2.1 / spectral_norm_sq(op)
    cfg = SolverConfig(stages=40, eta=eta, lam=0.0, init=InitMode.ADJOINT, mode=SolverMode.EXACT)
    with pytest.warns(UserWarning, match="tenfold"):
        y, report = unfold_solve(x, op, cfg)
    assert report.diverged
    assert report.diverged_stage is not None
    assert report.objectives[report.diverged_stage - 1] > report.objectives[0]


def test_unfold_stable_run_is_not_flagged():
    op, _, x = _problem(14)
    cfg = SolverConfig(stages=40, lam=0.0, init=InitMode.ADJOINT, mode=SolverMode.EXACT)
    _, report = unfold_solve(x, op, cfg)
    assert not report.diverged
    assert report.diverged_stage is None


def test_eta_resolution_modes():
    op, _, x = _problem(15)
    from specrank.forward_model import spectral_norm_sq

    _, auto_report = unfold_solve(
        x, op, SolverConfig(stages=3, lam=0.0, init=InitMode.ZEROS, mode=SolverMode.EXACT)
    )
    assert len(set(auto_report.eta)) == 1
    assert auto_report.eta[0] == pytest.approx(1.0 / spectral_norm_sq(op), rel=1e-8)
    per_stage = (0.1, 0.2, 0.3)
    _, rep = unfold_solve(
        x,
        op,
        SolverConfig(stages=3, eta=per_stage, lam=0.0, init=InitMode.ZEROS, mode=SolverMode.EXACT),
    )
    assert rep.eta == per_stage


def test_report_csv_shape():
    op, _, x = _problem(16)
    _, report = unfold_solve(
        x, op, SolverConfig(stages=4, lam=0.01, init=InitMode.ZEROS, mode=SolverMode.EXACT)
    )
    lines = report_csv_lines(report)
    assert lines[0] == "stage,objective,fidelity,elapsed_ns"
    assert len(lines) == 5
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert float(fields[1]) == report.objectives[k - 1]
        assert float(fields[2]) == report.fidelities[k - 1]


def test_solver_config_validation():
    lrsp = LrspConfig(r=2, kappa=4, theta=0.1)
    with pytest.raises(ValueError):
        SolverConfig(stages=0, lrsp=lrsp)
    with pytest.raises(ValueError):
        SolverConfig(stages=3)  # subspace mode without an LrspConfig
    with pytest.raises(ValueError):
        SolverConfig(stages=3, lrsp=lrsp, eta=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(stages=3, lrsp=lrsp, eta=(0.1, 0.2))
    with pytest.raises(ValueError):
        SolverConfig(stages=3, lrsp=lrsp, eta="fast")
    with pytest.raises(ValueError):
        SolverConfig(stages=3, lrsp=lrsp, lam=-1.0)


def test_auto_eta_rejects_zero_operator():
    op = ForwardOperator(np.zeros((3, 6)))
    x = RgbImage(np.zeros((3, 4)), 2, 2)
    with pytest.raises(NumericError):
        unfold_solve(x, op, SolverConfig(stages=2, lam=0.0, init=InitMode.ZEROS, mode=SolverMode.EXACT))


def test_unfold_reduces_nuclear_norm_with_regularization():
    op, y_true, x = _problem(17)
    y0 = initialize(x, op, InitMode.PSEUDOINVERSE)
    cfg = SolverConfig(stages=20, lam=0.5, init=InitMode.PSEUDOINVERSE, mode=SolverMode.EXACT)
    y, _ = unfold_solve(x, op, cfg)
    assert nuclear_norm(y.data) < nuclear_norm(y0.data)
