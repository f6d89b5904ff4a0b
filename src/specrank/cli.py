"""Command-line entry point.

Subcommands: synth (make a scene and optionally its RGB rendering and
operator), calibrate (estimate the operator from a paired RGB/cube),
reconstruct (run the staged solver), svt-bench (time the subspace proximal
and the Gram-matrix SVT against the full-SVD SVT), and metrics (score a
reconstruction).  Failures print a single machine-parseable line and exit 2
(usage), 3 (I/O), or 4 (numeric); output files are written atomically so
failed runs leave nothing behind.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .data_io import (
    SceneSpec,
    atomic_write_text,
    flat_illuminant,
    load_phi,
    read_cube,
    read_rgb,
    render_rgb,
    save_phi,
    synth_css,
    synth_scene,
    write_cube,
    write_rgb,
)
from .errors import (
    ConvergenceError,
    CubeFormatError,
    DegenerateSelectionError,
    NumericError,
    SpectraFormatError,
)
from .forward_model import SpectralCube, apply_phi, estimate_phi_ls, make_phi
from .lrsp import LrspConfig, LrspState, lrsp_apply
from .metrics import MetricReport, delta_e00, metric_csv_lines, mse_map, psnr, sam, ssim
from .solver import InitMode, SolverConfig, SolverMode, report_csv_lines, unfold_solve
from .svt import svt_full, svt_gram
from .transform import TransformKind


class UsageError(Exception):
    """Malformed command line or mutually inconsistent flags."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="specrank", description="Low-rank RGB-to-spectral toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--size", type=int, required=True, help="square spatial size")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-rgb", help="also render RGB through the stand-in camera")
    p.add_argument("--out-phi", help="also write the stand-in operator CSV")

    p = sub.add_parser("calibrate", help="estimate the operator from a paired example")
    p.add_argument("--rgb", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--out-phi", required=True)

    p = sub.add_parser("reconstruct", help="recover a cube from an RGB image")
    p.add_argument("--rgb", required=True)
    p.add_argument("--phi")
    p.add_argument("--calibrate-from", nargs=2, metavar=("RGB", "CUBE"))
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--eta", default="auto")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--transform", choices=["identity", "dct"], default="identity")
    p.add_argument("--exact", action="store_true", help="exact SVT proximal, one ISTA step per stage")
    p.add_argument("--rank", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--inner-steps", type=int, default=3)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--tau-min", type=float, default=0.1)
    p.add_argument("--beta1", type=float, default=0.5)
    p.add_argument("--c-beta", type=float, default=0.5)
    p.add_argument("--nu", type=float, default=10.0)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--init", choices=[m.value for m in InitMode], default="pseudoinverse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--mse-map", dest="mse_map")
    p.add_argument("--ref", help="ground-truth cube, required for --mse-map")

    p = sub.add_parser(
        "svt-bench", help="time the subspace proximal and Gram SVT against full SVT"
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--kappa", type=int)
    p.add_argument("--probes", type=int, default=8)
    p.add_argument("--inner-steps", type=int, default=1)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="score a reconstruction against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--phi", help="operator CSV; enables the color-difference column")
    p.add_argument("--out", required=True)
    return parser


def _cmd_synth(args) -> int:
    spec = SceneSpec(
        b=args.bands, h=args.size, w=args.size, rank=args.rank,
        noise_sigma=args.noise, seed=args.seed,
    )
    scene = synth_scene(spec)
    write_cube(args.out, scene)
    if args.out_rgb or args.out_phi:
        s = synth_css(spec.b)
        ell = flat_illuminant(spec.b)
        if args.out_rgb:
            write_rgb(args.out_rgb, render_rgb(scene, s, ell))
        if args.out_phi:
            save_phi(args.out_phi, make_phi(s, ell))
    return 0


def _cmd_calibrate(args) -> int:
    rgb = read_rgb(args.rgb)
    cube = read_cube(args.cube)
    save_phi(args.out_phi, estimate_phi_ls(rgb, cube, args.ridge))
    return 0


def _resolve_operator(args, parser_error):
    if (args.phi is None) == (args.calibrate_from is None):
        parser_error("exactly one of --phi and --calibrate-from is required")
    if args.phi is not None:
        return load_phi(args.phi)
    rgb_path, cube_path = args.calibrate_from
    return estimate_phi_ls(read_rgb(rgb_path), read_cube(cube_path), args.ridge)


def _cmd_reconstruct(args) -> int:
    def fail(msg):
        raise UsageError(msg)

    rgb = read_rgb(args.rgb)
    op = _resolve_operator(args, fail)
    if args.mse_map and not args.ref:
        fail("--mse-map requires --ref")
    eta = args.eta if args.eta == "auto" else float(args.eta)
    if args.exact:
        mode = SolverMode.EXACT
        lrsp = None
    else:
        mode = SolverMode.SUBSPACE
        if args.rank is None or args.kappa is None:
            fail("--rank and --kappa are required without --exact")
        lrsp = LrspConfig(
            r=args.rank, kappa=args.kappa, theta=args.theta, probes=args.probes,
            inner_steps=args.inner_steps, tau0=args.tau0, gamma=args.gamma,
            tau_min=args.tau_min, beta1=args.beta1, c_beta=args.c_beta,
            nu=args.nu, seed=args.seed,
        )
    config = SolverConfig(
        stages=args.stages, eta=eta, lam=args.lam,
        transform=TransformKind(args.transform), lrsp=lrsp,
        init=InitMode(args.init), mode=mode, memory_mu=args.mu,
    )
    cube, report = unfold_solve(rgb, op, config)
    write_cube(args.out, cube)
    if args.report:
        atomic_write_text(args.report, "\n".join(report_csv_lines(report)) + "\n")
    if args.mse_map:
        ref = read_cube(args.ref)
        plane = mse_map(ref, cube)
        write_cube(args.mse_map, SpectralCube(plane.reshape(1, -1), ref.h, ref.w))
    return 0


def _cmd_svt_bench(args) -> int:
    kappa = args.kappa if args.kappa is not None else min(8 * args.r, args.n)
    lines = ["method,seed,d,n,r,rel_err,elapsed_ns"]
    # untimed warmup so BLAS setup does not land in the first row
    warm = np.random.default_rng(0).standard_normal((args.d, args.n))
    svt_full(warm, args.theta)
    svt_gram(warm, args.theta)
    base_cfg = LrspConfig(
        r=args.r, kappa=kappa, theta=args.theta, probes=args.probes,
        inner_steps=args.inner_steps,
    )
    lrsp_apply(warm, base_cfg, LrspState(beta=base_cfg.beta1))
    for seed in range(args.seeds):
        a = np.random.default_rng(seed).standard_normal((args.d, args.n))
        t0 = time.perf_counter_ns()
        ref = svt_full(a, args.theta)
        t_full = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        gram = svt_gram(a, args.theta)
        t_gram = time.perf_counter_ns() - t0
        cfg = LrspConfig(
            r=args.r, kappa=kappa, theta=args.theta, probes=args.probes,
            inner_steps=args.inner_steps, seed=seed,
        )
        t0 = time.perf_counter_ns()
        out, _, _ = lrsp_apply(a, cfg, LrspState(beta=cfg.beta1))
        t_lrsp = time.perf_counter_ns() - t0
        ref_norm = np.linalg.norm(ref)
        rel_gram = float(np.linalg.norm(gram - ref) / ref_norm)
        rel = float(np.linalg.norm(out - ref) / ref_norm)
        prefix = f"{seed},{args.d},{args.n},{args.r}"
        lines.append(f"full,{prefix},0,{t_full}")
        lines.append(f"gram,{prefix},{format(rel_gram, '.17g')},{t_gram}")
        lines.append(f"lrsp,{prefix},{format(rel, '.17g')},{t_lrsp}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_metrics(args) -> int:
    ref = read_cube(args.ref)
    test = read_cube(args.test)
    de = None
    if args.phi:
        op = load_phi(args.phi)
        de = delta_e00(apply_phi(op, ref), apply_phi(op, test))
    report = MetricReport(
        psnr_db=psnr(ref, test), ssim=ssim(ref, test), sam_deg=sam(ref, test), delta_e00=de
    )
    atomic_write_text(args.out, "\n".join(metric_csv_lines(report)) + "\n")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "calibrate": _cmd_calibrate,
    "reconstruct": _cmd_reconstruct,
    "svt-bench": _cmd_svt_bench,
    "metrics": _cmd_metrics,
}


def run(argv) -> int:
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 2
    except (CubeFormatError, SpectraFormatError, OSError) as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 3
    except (ConvergenceError, NumericError, DegenerateSelectionError, np.linalg.LinAlgError) as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
