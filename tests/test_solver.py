import numpy as np
import pytest

from specrank.data_io import SceneSpec, flat_illuminant, synth_css, synth_scene
from specrank.errors import DimensionError, NumericError
from specrank.forward_model import (
    ForwardOperator,
    RgbImage,
    SpectralCube,
    apply_phi,
    make_phi,
    spectral_norm_sq,
)
from specrank.solver import (
    InitMode,
    SolverConfig,
    analyze,
    data_fidelity,
    gradient_step,
    initialize,
    objective,
    report_csv_lines,
    synthesize,
    unfold_solve,
)
from specrank.lrsp import LrspConfig, LrspDiagnostics, lrsp_apply
from specrank.svt import nuclear_norm, svt_full, svt_gram


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
    want = y.data - eta * (op.phi.T @ (op.phi @ y.data - x.data))
    assert np.array_equal(out.data, want)


def _count_containers(monkeypatch):
    built = []
    for cls in (SpectralCube, RgbImage):
        original = cls.__post_init__

        def counted(self, original=original, name=cls.__name__):
            built.append(name)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_gradient_step_builds_two_containers(monkeypatch):
    # the observation apply_phi returns and the result; the residual and the
    # back-projection stay plain arrays
    op, y, x = _problem(22)
    built = _count_containers(monkeypatch)
    gradient_step(y, op, x, 0.1)
    assert sorted(built) == ["RgbImage", "SpectralCube"]


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


def test_analyze_returns_the_matrix():
    _, y, _ = _problem(19)
    assert analyze(y) is y.data


def test_analyze_synthesize_roundtrip():
    _, y, _ = _problem(20)
    back = synthesize(analyze(y), y.h, y.w)
    assert np.array_equal(back.data, y.data)
    assert back.dims == y.dims


def test_zero_cube_maps_to_zero_both_ways():
    y = SpectralCube(np.zeros((6, 4)), 2, 2)
    u = analyze(y)
    assert np.array_equal(u, np.zeros((6, 4)))
    assert np.array_equal(synthesize(u, 2, 2).data, np.zeros((6, 4)))


def test_analyze_output_is_read_only():
    _, y, _ = _problem(21)
    before = y.data.copy()
    u = analyze(y)
    with pytest.raises(ValueError):
        u[0, 0] += 1.0
    assert np.array_equal(y.data, before)


def test_synthesize_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        synthesize(np.zeros(8), 2, 4)
    with pytest.raises(DimensionError):
        synthesize(np.zeros((8, 9)), 2, 4)


def test_objective_zero_cases():
    op, y, x = _problem(6)
    assert objective(y, op, x, 0.0) == 0.0
    zero_x = RgbImage(np.zeros_like(x.data), x.h, x.w)
    zero_y = SpectralCube(np.zeros_like(y.data), y.h, y.w)
    assert objective(zero_y, op, zero_x, 2.0) == 0.0


def test_objective_matches_naive_evaluation():
    rng = np.random.default_rng(7)
    op, _, x = _problem(7)
    y = SpectralCube(rng.standard_normal((8, 32)), 4, 8)
    lam = 0.3
    got = objective(y, op, x, lam)
    resid = op.phi @ y.data - x.data
    naive = 0.5 * float((resid * resid).sum()) + lam * float(
        np.linalg.svd(y.data, compute_uv=False).sum()
    )
    assert got == pytest.approx(naive, rel=1e-12)
    assert data_fidelity(y, op, x) == pytest.approx(0.5 * float((resid * resid).sum()), rel=1e-12)


def test_unfold_zero_image_stays_at_zero():
    op, _, _ = _problem(8)
    x = RgbImage(np.zeros((3, 32)), 4, 8)
    cfg = SolverConfig(stages=4, lam=0.1, init=InitMode.ZEROS)
    y, report = unfold_solve(x, op, cfg)
    assert np.array_equal(y.data, np.zeros((8, 32)))
    assert all(o == 0.0 for o in report.objectives)


def test_unfold_fixed_point_without_regularization():
    op, y_true, x = _problem(9)
    cfg = SolverConfig(stages=5, lam=0.0, init=InitMode.PSEUDOINVERSE)
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
    cfg = SolverConfig(stages=4, lam=0.05, init=InitMode.ZEROS)
    _, report = unfold_solve(x, op, cfg)
    assert len(report.lrsp) == 4
    assert all(d.steps == () and d.total_elapsed_ns > 0 for d in report.lrsp)


def test_unfold_exact_mode_objective_descends():
    for seed in range(10):
        rng = np.random.default_rng([300, seed])
        op = ForwardOperator(rng.uniform(0.0, 1.0, (3, 8)))
        y_true = SpectralCube(rng.uniform(0.0, 1.0, (8, 128)), 8, 16)
        x = apply_phi(op, y_true)
        cfg = SolverConfig(stages=15, lam=0.05, init=InitMode.ZEROS)
        y, report = unfold_solve(x, op, cfg)
        start = objective(initialize(x, op, InitMode.ZEROS), op, x, 0.05)
        trail = (start,) + report.objectives
        assert all(b <= a + 1e-9 for a, b in zip(trail, trail[1:]))


@pytest.mark.parametrize("r", [3, 8])
def test_unfold_subspace_mode_objective_descends(r):
    # both proximals shrink by lam * eta_k; with r >= rank(phi) = 3 the budget
    # does not bind, so subspace mode descends the objective it reports
    for seed in range(100):
        rng = np.random.default_rng([300, seed])
        op = ForwardOperator(rng.uniform(0.0, 1.0, (3, 8)))
        y_true = SpectralCube(rng.uniform(0.0, 1.0, (8, 128)), 8, 16)
        x = apply_phi(op, y_true)
        lrsp = LrspConfig(r=r, kappa=16)
        cfg = SolverConfig(stages=10, lam=0.05, lrsp=lrsp, init=InitMode.ZEROS)
        _, report = unfold_solve(x, op, cfg)
        start = objective(initialize(x, op, InitMode.ZEROS), op, x, 0.05)
        trail = (start,) + report.objectives
        assert all(b <= a + 1e-9 for a, b in zip(trail, trail[1:]))


def test_unfold_subspace_mode_runs_and_reports():
    op, y_true, x = _problem(11)
    lrsp = LrspConfig(r=4, kappa=16, inner_steps=2)
    cfg = SolverConfig(stages=6, lam=0.01, lrsp=lrsp, init=InitMode.PSEUDOINVERSE)
    y, report = unfold_solve(x, op, cfg)
    assert y.dims == y_true.dims
    assert len(report.objectives) == 6
    assert len(report.lrsp) == 6
    assert all(len(d.steps) == 2 for d in report.lrsp)
    assert all(np.isfinite(o) for o in report.objectives)
    assert not report.diverged
    # the report's columns are objective() and data_fidelity() bit for bit
    assert report.objectives[-1] == objective(y, op, x, 0.01)
    assert report.fidelities[-1] == data_fidelity(y, op, x)


def test_unfold_flags_divergence_for_oversized_steps():
    op, y_true, x = _problem(13)
    eta = 2.1 / spectral_norm_sq(op)
    cfg = SolverConfig(stages=40, eta=eta, lam=0.0, init=InitMode.ADJOINT)
    with pytest.warns(UserWarning, match="tenfold"):
        y, report = unfold_solve(x, op, cfg)
    assert report.diverged
    assert report.diverged_stage is not None
    assert report.objectives[report.diverged_stage - 1] > report.objectives[0]


def test_unfold_stable_run_is_not_flagged():
    op, _, x = _problem(14)
    cfg = SolverConfig(stages=40, lam=0.0, init=InitMode.ADJOINT)
    _, report = unfold_solve(x, op, cfg)
    assert not report.diverged
    assert report.diverged_stage is None


def test_eta_resolution_modes():
    op, _, x = _problem(15)
    _, auto_report = unfold_solve(
        x, op, SolverConfig(stages=3, lam=0.0, init=InitMode.ZEROS)
    )
    assert len(set(auto_report.eta)) == 1
    assert auto_report.eta[0] == pytest.approx(1.0 / spectral_norm_sq(op), rel=1e-8)
    per_stage = (0.1, 0.2, 0.3)
    _, rep = unfold_solve(
        x,
        op,
        SolverConfig(stages=3, eta=per_stage, lam=0.0, init=InitMode.ZEROS),
    )
    assert rep.eta == per_stage


def test_report_csv_shape():
    op, _, x = _problem(16)
    _, report = unfold_solve(
        x, op, SolverConfig(stages=4, lam=0.01, init=InitMode.ZEROS)
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
    lrsp = LrspConfig(r=2, kappa=4)
    with pytest.raises(ValueError):
        SolverConfig(stages=0, lrsp=lrsp)
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
        unfold_solve(x, op, SolverConfig(stages=2, lam=0.0, init=InitMode.ZEROS))


def test_proximal_value_error_is_a_numeric_error_naming_the_stage(monkeypatch):
    import specrank.solver

    calls = []
    real = specrank.solver.lrsp_apply

    def fail_second(u, theta, config, state):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("matrix entries must be finite")
        return real(u, theta, config, state)

    monkeypatch.setattr("specrank.solver.lrsp_apply", fail_second)
    op, _, x = _problem(23)
    cfg = SolverConfig(stages=3, lam=0.01, lrsp=LrspConfig(r=2, kappa=8))
    with pytest.raises(NumericError, match="^stage 2: matrix entries must be finite$"):
        unfold_solve(x, op, cfg)


def test_unfold_reduces_nuclear_norm_with_regularization():
    op, y_true, x = _problem(17)
    y0 = initialize(x, op, InitMode.PSEUDOINVERSE)
    cfg = SolverConfig(stages=20, lam=0.5, init=InitMode.PSEUDOINVERSE)
    y, _ = unfold_solve(x, op, cfg)
    assert nuclear_norm(y.data) < nuclear_norm(y0.data)


# -- the former stage loop, kept as the reference of unfold_solve -------------


def _reference_solve(x, op, config):
    """The stage loop as it was built on containers: gradient_step, proximal,
    a SpectralCube per stage, then data_fidelity and nuclear_norm."""
    etas = (1.0 / spectral_norm_sq(op),) * config.stages
    y = initialize(x, op, config.init)
    state = None
    objectives, fidelities, diags = [], [], []
    for k in range(config.stages):
        u = gradient_step(y, op, x, etas[k]).data
        if config.lrsp is None:
            out, diag = svt_gram(u, config.lam * etas[k]), LrspDiagnostics((), 0)
        else:
            out, state, diag = lrsp_apply(u, config.lam * etas[k], config.lrsp, state)
        y = SpectralCube(out, x.h, x.w)
        fid = data_fidelity(y, op, x)
        objectives.append(fid + config.lam * nuclear_norm(y.data))
        fidelities.append(fid)
        diags.append(diag)
    return y, tuple(objectives), tuple(fidelities), etas, diags


def _untimed(diag):
    return [(s.t, s.tau, s.beta, s.rho_hat, s.weight, s.n_completed) for s in diag.steps]


_REFERENCE_PROXIMALS = {
    "exact": None,
    "subspace": LrspConfig(r=8, kappa=64, inner_steps=3),
    "subspace-every-field": LrspConfig(
        r=2, kappa=32, probes=5, inner_steps=2, tau0=2.0, gamma=0.7,
        tau_min=0.2, beta1=0.8, c_beta=0.3, nu=5.0, mu=0.3, seed=7,
    ),
}


@pytest.mark.parametrize("noise", [0.0, 0.01], ids=["clean", "noisy"])
@pytest.mark.parametrize("init", list(InitMode), ids=lambda m: m.value)
@pytest.mark.parametrize("proximal", list(_REFERENCE_PROXIMALS))
def test_unfold_solve_equals_the_container_loop_bit_for_bit(proximal, init, noise):
    scene = synth_scene(SceneSpec(b=31, h=16, w=16, rank=4, noise_sigma=noise, seed=3))
    op = make_phi(synth_css(31), flat_illuminant(31))
    x = apply_phi(op, scene)
    config = SolverConfig(stages=12, lam=0.001, lrsp=_REFERENCE_PROXIMALS[proximal], init=init)
    y, report = unfold_solve(x, op, config)
    want_y, want_obj, want_fid, want_eta, want_diags = _reference_solve(x, op, config)
    assert np.array_equal(y.data, want_y.data)
    assert report.objectives == want_obj
    assert report.fidelities == want_fid
    assert report.eta == want_eta
    assert [_untimed(d) for d in report.lrsp] == [_untimed(d) for d in want_diags]


@pytest.mark.parametrize(
    "lrsp", [None, LrspConfig(r=2, kappa=8)], ids=["exact", "subspace"]
)
@pytest.mark.parametrize("stages", [1, 12])
def test_unfold_solve_builds_two_containers_at_any_stage_count(monkeypatch, stages, lrsp):
    # the seed cube of initialize and the returned cube
    op, _, x = _problem(24)
    built = _count_containers(monkeypatch)
    unfold_solve(x, op, SolverConfig(stages=stages, lam=0.01, lrsp=lrsp))
    assert built == ["SpectralCube", "SpectralCube"]


class _CountingPhi(np.ndarray):
    """An operator matrix that counts the products taken with it and its transpose."""

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)  # shared with the views, phi.T included

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and isinstance(inputs[0], _CountingPhi):
            self.counts["adjoint" if inputs[0].shape[0] > 3 else "forward"] += 1
        plain = [np.asarray(a) if isinstance(a, _CountingPhi) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("stages", [1, 12])
def test_unfold_solve_applies_phi_once_per_stage_plus_once(stages):
    op, _, x = _problem(25)
    counting = op.phi.view(_CountingPhi)
    counting.counts = {"forward": 0, "adjoint": 0}
    object.__setattr__(op, "phi", counting)
    unfold_solve(x, op, SolverConfig(stages=stages, lam=0.01, init=InitMode.ZEROS))
    assert counting.counts == {"forward": stages + 1, "adjoint": stages}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("proximal", ["svt_gram", "lrsp_apply"])
def test_non_finite_proximal_output_is_a_numeric_error_naming_the_stage(
    monkeypatch, proximal, bad
):
    import specrank.solver

    real = getattr(specrank.solver, proximal)
    calls = []

    def poison_second(u, *args):
        calls.append(1)
        result = real(u, *args)
        out = result if proximal == "svt_gram" else result[0]
        if len(calls) == 2:
            out[1, 2] = bad
        return result

    monkeypatch.setattr(f"specrank.solver.{proximal}", poison_second)
    op, _, x = _problem(26)
    lrsp = LrspConfig(r=2, kappa=8) if proximal == "lrsp_apply" else None
    with pytest.raises(NumericError, match="^stage 2: "):
        unfold_solve(x, op, SolverConfig(stages=3, lam=0.01, lrsp=lrsp))


@pytest.mark.parametrize("init", list(InitMode), ids=lambda m: m.value)
def test_auto_eta_of_a_vanishing_operator_is_a_numeric_error_before_the_loop(init):
    op, _, x = _problem(27)
    tiny = ForwardOperator(1e-160 * op.phi)  # ||phi||^2 is subnormal, 1/||phi||^2 overflows
    with pytest.raises(NumericError, match="step size"):
        unfold_solve(x, tiny, SolverConfig(stages=2, lam=0.01, init=init))


def test_unfold_solve_returns_a_read_only_cube():
    op, _, x = _problem(28)
    y, _ = unfold_solve(x, op, SolverConfig(stages=2, lam=0.01))
    assert not y.data.flags.writeable and y.data.flags.owndata


# -- where the budget binds --------------------------------------------------


def _camera_problem(noise):
    """The benchmark's camera on a 31-band 16x16 rank-4 scene."""
    scene = synth_scene(SceneSpec(b=31, h=16, w=16, rank=4, noise_sigma=noise, seed=3))
    op = make_phi(synth_css(31), flat_illuminant(31))
    return op, apply_phi(op, scene)


@pytest.mark.parametrize("noise", [0.0, 0.01], ids=["clean", "noisy"])
@pytest.mark.parametrize("init", list(InitMode), ids=lambda m: m.value)
@pytest.mark.parametrize("r", [3, 8])
def test_subspace_solve_at_rank_of_phi_or_above_is_the_gated_closed_form(r, init, noise):
    # every stage input has rank <= rank(phi) = 3, so with r >= 3 each proposal
    # is the gated exact SVT and a stage is (1 - a) U + a SVT(U, lam * eta_k)
    op, x = _camera_problem(noise)
    lam = 0.001
    config = SolverConfig(stages=12, lam=lam, lrsp=LrspConfig(r=r, kappa=64), init=init)
    y, report = unfold_solve(x, op, config)
    want = initialize(x, op, init).data
    plain_ista = want
    for eta, diag in zip(report.eta, report.lrsp):
        a = sum(s.weight / (1.0 + np.exp(-s.beta)) for s in diag.steps)
        u = want - eta * (op.phi.T @ (op.phi @ want - x.data))
        want = (1.0 - a) * u + a * svt_full(u, lam * eta)
        u = plain_ista - eta * (op.phi.T @ (op.phi @ plain_ista - x.data))
        plain_ista = svt_full(u, lam * eta)
    scale = np.linalg.norm(want)
    assert np.linalg.norm(y.data - want) <= 1e-12 * scale
    # the gate matters: the solve is not plain ISTA
    assert np.linalg.norm(y.data - plain_ista) > 1e-9 * scale


@pytest.mark.parametrize("init", list(InitMode), ids=lambda m: m.value)
@pytest.mark.parametrize("r", [None, 1, 2, 8], ids=["exact", "r1", "r2", "r8"])
def test_unfold_solve_cube_lies_in_the_row_space_of_phi(r, init):
    op, x = _camera_problem(0.01)
    lrsp = None if r is None else LrspConfig(r=r, kappa=64)
    y, _ = unfold_solve(x, op, SolverConfig(stages=12, lam=0.001, lrsp=lrsp, init=init))
    _, s, vt = np.linalg.svd(op.phi, full_matrices=False)
    p = vt[s > s[0] * 1e-12].T  # orthonormal basis of span(phi^T)
    outside = y.data - p @ (p.T @ y.data)
    assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(y.data)
