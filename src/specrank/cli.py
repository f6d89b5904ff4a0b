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
import dataclasses
import os
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
    save_phi,
    synth_css,
    synth_scene,
    write_cube,
    write_rgb,
)
from .errors import CubeFormatError, DegenerateSelectionError, NumericError
from .forward_model import SpectralCube, apply_phi, estimate_phi_ls, make_phi
from .lrsp import LrspConfig, lrsp_apply
from .metrics import MetricReport, delta_e00, metric_csv_lines, mse_map, psnr, sam, ssim
from .solver import InitMode, SolverConfig, report_csv_lines, unfold_solve
from .svt import svt_full, svt_gram


class UsageError(Exception):
    """Malformed command line or mutually inconsistent flags."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The operator flags, by LrspConfig field.  A flag that has no CLI default
# of its own and is left unset is absent from the parsed namespace, so its
# field keeps LrspConfig's default.
_LRSP_FLAGS = {
    "probes": int, "inner_steps": int, "tau0": float, "gamma": float, "tau_min": float,
    "beta1": float, "c_beta": float, "nu": float, "mu": float, "seed": int,
}


def _lrsp_fields(args) -> dict:
    """The LrspConfig fields that the parsed operator flags set."""
    return {name: getattr(args, name) for name in _LRSP_FLAGS if hasattr(args, name)}


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
    p.add_argument("--exact", action="store_true", help="exact SVT proximal, one ISTA step per stage")
    p.add_argument("--rank", type=int)
    p.add_argument("--kappa", type=int)
    for name, kind in _LRSP_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=argparse.SUPPRESS)
    p.add_argument("--init", choices=[m.value for m in InitMode], default="pseudoinverse")
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
    p.add_argument("--probes", type=int, default=argparse.SUPPRESS)
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
    # Everything is built before the first write, so a failure writes nothing.
    if args.out_rgb or args.out_phi:
        op = make_phi(synth_css(spec.b), flat_illuminant(spec.b))
        rgb = apply_phi(op, scene) if args.out_rgb else None
    write_cube(args.out, scene)
    if args.out_rgb:
        write_rgb(args.out_rgb, rgb)
    if args.out_phi:
        save_phi(args.out_phi, op)
    return 0


def _cmd_calibrate(args) -> int:
    rgb = read_rgb(args.rgb)
    cube = read_cube(args.cube)
    save_phi(args.out_phi, estimate_phi_ls(rgb, cube, args.ridge))
    return 0


def _resolve_operator(args):
    if args.phi is not None:
        return load_phi(args.phi)
    rgb_path, cube_path = args.calibrate_from
    return estimate_phi_ls(read_rgb(rgb_path), read_cube(cube_path), args.ridge)


# Every output flag of every subcommand.
_OUTPUTS = ("out", "out_rgb", "out_phi", "report", "mse_map")


def _check_output_dirs(args) -> None:
    """Raise OSError unless every output path given is a non-directory in an existing directory."""
    for name in _OUTPUTS:
        path = getattr(args, name, None)
        if path is not None:
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                raise FileNotFoundError(f"{path}: {parent} is not an existing directory")
            if os.path.isdir(path):
                raise IsADirectoryError(f"{path}: is a directory")


def _cmd_reconstruct(args) -> int:
    if args.exact:
        given = [
            "--" + name.replace("_", "-") for name in ("rank", "kappa", *_LRSP_FLAGS)
            if getattr(args, name, None) is not None
        ]
        if given:
            raise UsageError(f"--exact takes no operator flags, got {', '.join(given)}")
    if (args.phi is None) == (args.calibrate_from is None):
        raise UsageError("exactly one of --phi and --calibrate-from is required")
    if args.mse_map and not args.ref:
        raise UsageError("--mse-map requires --ref")
    eta = args.eta if args.eta == "auto" else float(args.eta)
    lrsp = None
    if not args.exact:
        if args.rank is None or args.kappa is None:
            raise UsageError("--rank and --kappa are required without --exact")
        lrsp = LrspConfig(r=args.rank, kappa=args.kappa, **_lrsp_fields(args))
    config = SolverConfig(
        stages=args.stages, eta=eta, lam=args.lam, lrsp=lrsp, init=InitMode(args.init)
    )
    # Every flag is checked above, so a usage error reads no input.
    rgb = read_rgb(args.rgb)
    op = _resolve_operator(args)
    cube, report = unfold_solve(rgb, op, config)
    err_map = None
    if args.mse_map:
        # Scored before the first write, so a bad --ref leaves no output; read
        # only after the solve, so the ref cube is not held through it.
        ref = read_cube(args.ref)
        err_map = SpectralCube(mse_map(ref, cube).reshape(1, -1), ref.h, ref.w)
        del ref
    write_cube(args.out, cube)
    if args.report:
        atomic_write_text(args.report, "\n".join(report_csv_lines(report)) + "\n")
    if err_map is not None:
        write_cube(args.mse_map, err_map)
    return 0


def _cmd_svt_bench(args) -> int:
    kappa = args.kappa if args.kappa is not None else min(8 * args.r, args.n)
    base_cfg = LrspConfig(r=args.r, kappa=kappa, **_lrsp_fields(args))
    lines = ["method,seed,d,n,r,rel_err,elapsed_ns"]
    # untimed warmup so BLAS setup does not land in the first row; lrsp_apply
    # goes first because it checks the budget against d and n before any SVD
    warm = np.random.default_rng(0).standard_normal((args.d, args.n))
    lrsp_apply(warm, args.theta, base_cfg)
    svt_full(warm, args.theta)
    svt_gram(warm, args.theta)
    for seed in range(args.seeds):
        a = np.random.default_rng(seed).standard_normal((args.d, args.n))
        t0 = time.perf_counter_ns()
        ref = svt_full(a, args.theta)
        t_full = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        gram = svt_gram(a, args.theta)
        t_gram = time.perf_counter_ns() - t0
        cfg = dataclasses.replace(base_cfg, seed=seed)
        t0 = time.perf_counter_ns()
        out, _, _ = lrsp_apply(a, args.theta, cfg)
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
        _check_output_dirs(args)  # before any work, so a bad path writes nothing
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 2
    except (CubeFormatError, OSError) as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 3
    except (NumericError, DegenerateSelectionError, np.linalg.LinAlgError) as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
