"""Acceptance gate: end-to-end behavioral guarantees of the package.

Each test prints one verdict line (``ACCEPTANCE <name>: PASS`` or ``FAIL``)
so the gate can be read off a ``pytest -s`` run at a glance, then asserts.
"""

import time

import numpy as np

from specrank.cli import run
from specrank.data_io import SceneSpec, flat_illuminant, read_cube, synth_css, synth_scene
from specrank.forward_model import (
    ForwardOperator,
    RgbImage,
    SpectralCube,
    apply_phi,
    apply_phi_adjoint,
    make_phi,
)
from specrank.lrsp import EXACT_GATE_BETA, LrspConfig, lrsp_apply, temperature
from specrank.metrics import ciede2000_lab, mse_map, psnr, sam
from specrank.solver import (
    InitMode,
    SolverConfig,
    initialize,
    objective,
    unfold_solve,
)
from specrank.svt import svt_full


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    if detail and not ok:
        print(f"  detail: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_svt_oracle_equivalence():
    # full budget, full rank, saturated gate: the subspace operator must
    # reproduce plain singular-value thresholding on random 32 x 64 inputs
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        u = np.random.default_rng(i).standard_normal((32, 64))
        cfg = LrspConfig(
            r=32, kappa=64, inner_steps=1, c_beta=0.0,
            beta1=EXACT_GATE_BETA, seed=i,
        )
        out, _, _ = lrsp_apply(u, 0.5, cfg)
        ref = svt_full(u, 0.5)
        worst = max(worst, float(np.linalg.norm(out - ref) / np.linalg.norm(ref)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(
        "svt-oracle-equivalence", ok,
        f"worst rel err {worst:.3e} (budget 1e-8), elapsed {elapsed:.1f}s (budget 10s)",
    )


def test_acceptance_subspace_fidelity():
    # on noisy low-rank inputs the adaptive subspace must track full SVT at
    # least as well as a plain randomized range-finder of the same rank
    lrsp_errs = []
    rf_errs = []
    for i in range(20):
        rng = np.random.default_rng([1000, i])
        low = rng.standard_normal((64, 8)) @ rng.standard_normal((8, 256))
        sigma = 0.01 * np.linalg.norm(low) / np.sqrt(64 * 256)
        u = low + sigma * rng.standard_normal((64, 256))
        ref = svt_full(u, 0.5)

        cfg = LrspConfig(
            r=8, kappa=64, inner_steps=3, c_beta=0.0,
            beta1=EXACT_GATE_BETA, seed=i,
        )
        out, _, _ = lrsp_apply(u, 0.5, cfg)
        lrsp_errs.append(float(np.linalg.norm(out - ref) / np.linalg.norm(ref)))

        g = np.random.default_rng([2000, i]).standard_normal((256, 8))
        q, _ = np.linalg.qr(u @ g)
        rf = q @ svt_full(q.T @ u, 0.5)
        rf_errs.append(float(np.linalg.norm(rf - ref) / np.linalg.norm(ref)))
    med_lrsp = float(np.median(lrsp_errs))
    med_rf = float(np.median(rf_errs))
    ok = med_lrsp <= med_rf
    _verdict(
        "subspace-fidelity", ok,
        f"median rel err {med_lrsp:.4f} vs range-finder {med_rf:.4f}",
    )


def test_acceptance_ista_descent():
    # the exact-mode solver is ISTA; its composite objective must never
    # increase on any of 100 random problems
    violations = 0
    for i in range(100):
        rng = np.random.default_rng([300, i])
        op = ForwardOperator(rng.uniform(0.0, 1.0, (3, 8)))
        y_true = SpectralCube(rng.uniform(0.0, 1.0, (8, 128)), 8, 16)
        x = apply_phi(op, y_true)
        cfg = SolverConfig(stages=30, lam=0.05, init=InitMode.ZEROS)
        _, report = unfold_solve(x, op, cfg)
        start = objective(initialize(x, op, InitMode.ZEROS), op, x, 0.05)
        trail = (start,) + report.objectives
        violations += sum(1 for a, b in zip(trail, trail[1:]) if b > a + 1e-9)
    ok = violations == 0
    _verdict("ista-descent", ok, f"{violations} objective increases over 100 runs")


def test_acceptance_adjointness():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([400, i])
        op = ForwardOperator(rng.standard_normal((3, 10)))
        y = SpectralCube(rng.standard_normal((10, 15)), 3, 5)
        x = RgbImage(rng.standard_normal((3, 15)), 3, 5)
        lhs = float(np.vdot(apply_phi(op, y).data, x.data))
        rhs = float(np.vdot(y.data, apply_phi_adjoint(op, x).data))
        bound = 1e-10 * (np.linalg.norm(y.data) * np.linalg.norm(x.data) + 1.0)
        worst = max(worst, abs(lhs - rhs) / bound)
    ok = worst <= 1.0
    _verdict("adjointness", ok, f"worst gap at {worst:.2f}x the 1e-10-scaled bound")


def test_acceptance_complexity_slopes():
    # the subspace proximal must scale close to linearly in the pixel count
    # while full SVT scales strictly faster
    t0 = time.perf_counter()
    sizes = [256, 1024, 4096, 16384]
    lrsp_times = []
    svt_times = []
    warm = np.random.default_rng(0).standard_normal((64, 1024))
    cfg_warm = LrspConfig(r=8, kappa=64, inner_steps=1)
    lrsp_apply(warm, 0.5, cfg_warm)
    svt_full(warm, 0.5)
    for n in sizes:
        u = np.random.default_rng(n).standard_normal((64, n))
        cfg = LrspConfig(r=8, kappa=64, inner_steps=1)
        reps_l = []
        reps_s = []
        for _ in range(5):
            t = time.perf_counter()
            lrsp_apply(u, 0.5, cfg)
            reps_l.append(time.perf_counter() - t)
            t = time.perf_counter()
            svt_full(u, 0.5)
            reps_s.append(time.perf_counter() - t)
        lrsp_times.append(min(reps_l))
        svt_times.append(min(reps_s))
    slope_lrsp = float(np.polyfit(np.log(sizes), np.log(lrsp_times), 1)[0])
    slope_svt = float(np.polyfit(np.log(sizes), np.log(svt_times), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope_lrsp <= 1.2 and slope_svt > slope_lrsp and elapsed < 120.0
    _verdict(
        "complexity-slopes", ok,
        f"lrsp slope {slope_lrsp:.3f} (budget 1.2), svt slope {slope_svt:.3f}, "
        f"elapsed {elapsed:.1f}s (budget 120s)",
    )


def test_acceptance_end_to_end_recovery():
    # the budgeted solver must land within 1 dB and 5% objective of the
    # exact solver on a noiseless synthetic scene
    scene = synth_scene(SceneSpec(b=16, h=24, w=24, rank=4, noise_sigma=0.0, seed=5))
    op = make_phi(synth_css(16), flat_illuminant(16))
    x = apply_phi(op, scene)
    lam = 1e-3

    exact_cfg = SolverConfig(stages=30, lam=lam, init=InitMode.PSEUDOINVERSE)
    y_exact, rep_exact = unfold_solve(x, op, exact_cfg)

    lrsp = LrspConfig(
        r=8, kappa=64, inner_steps=3, c_beta=0.0,
        beta1=EXACT_GATE_BETA, seed=0,
    )
    sub_cfg = SolverConfig(stages=30, lam=lam, lrsp=lrsp, init=InitMode.PSEUDOINVERSE)
    y_sub, rep_sub = unfold_solve(x, op, sub_cfg)

    psnr_exact = psnr(scene, y_exact)
    psnr_sub = psnr(scene, y_sub)
    obj_gap = abs(rep_sub.objectives[-1] - rep_exact.objectives[-1])
    resid = np.linalg.norm(apply_phi(op, y_sub).data - x.data) / np.linalg.norm(x.data)
    ok = (
        abs(psnr_sub - psnr_exact) <= 1.0
        and obj_gap <= 0.05 * rep_exact.objectives[-1]
        and resid <= 1e-2
    )
    _verdict(
        "end-to-end-recovery", ok,
        f"psnr {psnr_sub:.2f} vs exact {psnr_exact:.2f} dB, objective gap {obj_gap:.3e} "
        f"(budget {0.05 * rep_exact.objectives[-1]:.3e}), rel residual {resid:.3e}",
    )


CIEDE2000_PAIRS = [
    (50.0000, 2.6772, -79.7751, 50.0000, 0.0000, -82.7485, 2.0425),
    (50.0000, 3.1571, -77.2803, 50.0000, 0.0000, -82.7485, 2.8615),
    (50.0000, 2.8361, -74.0200, 50.0000, 0.0000, -82.7485, 3.4412),
    (50.0000, -1.3802, -84.2814, 50.0000, 0.0000, -82.7485, 1.0000),
    (50.0000, -1.1848, -84.8006, 50.0000, 0.0000, -82.7485, 1.0000),
    (50.0000, -0.9009, -85.5211, 50.0000, 0.0000, -82.7485, 1.0000),
    (50.0000, 0.0000, 0.0000, 50.0000, -1.0000, 2.0000, 2.3669),
    (50.0000, -1.0000, 2.0000, 50.0000, 0.0000, 0.0000, 2.3669),
    (50.0000, 2.4900, -0.0010, 50.0000, -2.4900, 0.0009, 7.1792),
    (50.0000, 2.4900, -0.0010, 50.0000, -2.4900, 0.0010, 7.1792),
    (50.0000, 2.4900, -0.0010, 50.0000, -2.4900, 0.0011, 7.2195),
    (50.0000, 2.4900, -0.0010, 50.0000, -2.4900, 0.0012, 7.2195),
    (50.0000, -0.0010, 2.4900, 50.0000, 0.0009, -2.4900, 4.8045),
    (50.0000, -0.0010, 2.4900, 50.0000, 0.0010, -2.4900, 4.8045),
    (50.0000, -0.0010, 2.4900, 50.0000, 0.0011, -2.4900, 4.7461),
    (50.0000, 2.5000, 0.0000, 50.0000, 0.0000, -2.5000, 4.3065),
    (50.0000, 2.5000, 0.0000, 73.0000, 25.0000, -18.0000, 27.1492),
    (50.0000, 2.5000, 0.0000, 61.0000, -5.0000, 29.0000, 22.8977),
    (50.0000, 2.5000, 0.0000, 56.0000, -27.0000, -3.0000, 31.9030),
    (50.0000, 2.5000, 0.0000, 58.0000, 24.0000, 15.0000, 19.4535),
    (50.0000, 2.5000, 0.0000, 50.0000, 3.1736, 0.5854, 1.0000),
    (50.0000, 2.5000, 0.0000, 50.0000, 3.2972, 0.0000, 1.0000),
    (50.0000, 2.5000, 0.0000, 50.0000, 1.8634, 0.5757, 1.0000),
    (50.0000, 2.5000, 0.0000, 50.0000, 3.2592, 0.3350, 1.0000),
    (60.2574, -34.0099, 36.2677, 60.4626, -34.1751, 39.4387, 1.2644),
    (63.0109, -31.0961, -5.8663, 62.8187, -29.7946, -4.0864, 1.2630),
    (61.2901, 3.7196, -5.3901, 61.4292, 2.2480, -4.9620, 1.8731),
    (35.0831, -44.1164, 3.7933, 35.0232, -40.0716, 1.5901, 1.8645),
    (22.7233, 20.0904, -46.6940, 23.0331, 14.9730, -42.5619, 2.0373),
    (36.4612, 47.8580, 18.3852, 36.2715, 50.5065, 21.2231, 1.4146),
    (90.8027, -2.0831, 1.4410, 91.1528, -1.6435, 0.0447, 1.4441),
    (90.9257, -0.5406, -0.9208, 88.6381, -0.8985, -0.7239, 1.5381),
    (6.7747, -0.2908, -2.4247, 5.8714, -0.0985, -2.2286, 0.6377),
    (2.0776, 0.0795, -1.1350, 0.9033, -0.0636, -0.5514, 0.9082),
]


def test_acceptance_metric_oracles():
    worst_de = 0.0
    for l1, a1, b1, l2, a2, b2, expected in CIEDE2000_PAIRS:
        got = float(ciede2000_lab([l1, a1, b1], [l2, a2, b2])[0])
        worst_de = max(worst_de, abs(got - expected))

    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 1.0, (6, 40))
    sam_exact = all(sam(y, c * y) == 0.0 for c in (2.0, 0.5, 4.0))

    base = np.zeros((5, 8))
    psnr_exact = psnr(base, base + 1.0, peak=10.0) == 20.0 and psnr(
        base, base + 2.0, peak=2.0
    ) == 0.0

    a = rng.standard_normal((6, 3, 4))
    b = rng.standard_normal((6, 3, 4))
    map_gap = abs(float(mse_map(a, b).mean()) - float(np.mean((a - b) ** 2)))

    ok = worst_de <= 1e-4 and sam_exact and psnr_exact and map_gap <= 1e-12
    _verdict(
        "metric-oracles", ok,
        f"worst color-difference gap {worst_de:.2e}, sam exact {sam_exact}, "
        f"psnr exact {psnr_exact}, mse-map gap {map_gap:.2e}",
    )


def test_acceptance_schedule_arithmetic():
    cfg_tau = LrspConfig(r=2, kappa=4, tau0=1.0, gamma=0.5, tau_min=0.1)
    taus_ok = (
        temperature(1, cfg_tau) == 1.0
        and temperature(3, cfg_tau) == 0.25
        and temperature(5, cfg_tau) == 0.1
    )

    u = np.random.default_rng(6).standard_normal((10, 20))
    cfg = LrspConfig(
        r=3, kappa=8, inner_steps=10, c_beta=0.7, beta1=0.5, seed=2
    )
    _, state, diag = lrsp_apply(u, 0.2, cfg)
    beta = 0.5
    betas_ok = True
    for step in diag.steps:
        betas_ok = betas_ok and step.beta == beta
        beta = beta + 0.7 * (1.0 - step.rho_hat)
    betas_ok = betas_ok and state.beta == beta

    ok = taus_ok and betas_ok
    _verdict(
        "schedule-arithmetic", ok,
        f"temperatures exact {taus_ok}, gate accumulation exact {betas_ok}",
    )


def _strip_column(text: str, index: int) -> list[list[str]]:
    rows = []
    for line in text.strip().splitlines():
        fields = line.split(",")
        del fields[index]
        rows.append(fields)
    return rows


def test_acceptance_cli_determinism(tmp_path):
    # repeated runs with fixed seeds must agree byte for byte once timing
    # columns are excluded
    ok = True
    details = []
    for tag in ("x", "y"):
        d = tmp_path / tag
        d.mkdir()
        assert run(["synth", "--bands", "12", "--size", "16", "--rank", "3",
                    "--seed", "5", "--out", str(d / "scene.hsc"),
                    "--out-rgb", str(d / "rgb.hsc"), "--out-phi", str(d / "phi.csv")]) == 0
        assert run(["reconstruct", "--rgb", str(d / "rgb.hsc"), "--phi", str(d / "phi.csv"),
                    "--stages", "3", "--rank", "3", "--kappa", "24", "--seed", "11",
                    "--out", str(d / "recon.hsc"), "--report", str(d / "report.csv")]) == 0
        assert run(["svt-bench", "--d", "24", "--n", "64", "--r", "4", "--seeds", "2",
                    "--out", str(d / "bench.csv")]) == 0
    x, y = tmp_path / "x", tmp_path / "y"
    for name in ("scene.hsc", "rgb.hsc", "phi.csv", "recon.hsc"):
        same = (x / name).read_bytes() == (y / name).read_bytes()
        ok = ok and same
        if not same:
            details.append(f"{name} differs")
    rep_same = _strip_column((x / "report.csv").read_text(), 3) == _strip_column(
        (y / "report.csv").read_text(), 3
    )
    bench_same = _strip_column((x / "bench.csv").read_text(), 6) == _strip_column(
        (y / "bench.csv").read_text(), 6
    )
    ok = ok and rep_same and bench_same
    if not rep_same:
        details.append("report.csv differs beyond timings")
    if not bench_same:
        details.append("bench.csv differs beyond timings")
    _verdict("cli-determinism", ok, "; ".join(details))
