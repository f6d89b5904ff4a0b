"""Workload definitions, seeded input generation and per-operation checks.

A workload is one CLI command line run over and over on inputs generated here
from the seed.  Inputs are made with plain numpy, not with ``specrank synth``,
so the program sees only files and a change to its synthetic-scene code
cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

BANDS = 31
SCENE_RANK = 4
LAMBDA = 0.001
STAGES = 12
WARMUP_SIZE = 64

# Floors on reconstruction quality.  The solver at the commit that added the
# benchmark reaches about 32 dB and 4.1 degrees on these scenes; an output
# below these marks is wrong, however fast it came.
MIN_PSNR_DB = 25.0
MAX_SAM_DEG = 8.0

# The pseudoinverse lift renders to the same RGB as its reference up to
# float32 storage, so their colour difference is round-off.
MAX_LIFT_DELTA_E00 = 1e-6

EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    """One benchmarked command: ``kind`` is "recon" or "score"."""

    name: str
    kind: str
    size: int
    exact: bool = False

    @property
    def voxels(self) -> int:
        return BANDS * self.size * self.size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recon-subspace-256", "recon", 256),
        Workload("recon-exact-256", "recon", 256, exact=True),
        Workload("score-256", "score", 256),
        Workload("score-512", "score", 512),
    )
}


def camera(bands: int = BANDS) -> np.ndarray:
    """3 x B operator: Gaussian channel responses at 650/550/450 nm, peak 1."""
    wl = np.linspace(400.0, 700.0, bands)
    centers = np.array([650.0, 550.0, 450.0])
    rows = np.exp(-((wl[None, :] - centers[:, None]) ** 2) / (2.0 * 50.0**2))
    return rows / rows.max(axis=1, keepdims=True)


def scene(seed: int, size: int, bands: int = BANDS, rank: int = SCENE_RANK) -> np.ndarray:
    """Rank-``rank`` B x N cube, rounded to float32 as it is stored.

    The spectral signatures are fixed and only the abundance fields come from
    the seed.  Each field is the exponential of a standardized sum of many
    random plane waves, and the cube is scaled to a fixed mean, so every seed
    yields a scene of the same difficulty: quality metrics then differ little
    between seeds (about 0.5% over ten) and a change in them means the answer
    moved.
    """
    rng = np.random.default_rng(seed)
    wl = np.linspace(400.0, 700.0, bands)
    centers = np.linspace(440.0, 660.0, rank)
    signatures = np.exp(-((wl[:, None] - centers[None, :]) ** 2) / (2.0 * 45.0**2))
    axis = 2.0 * np.pi * np.arange(size) / size
    fields = np.empty((rank, size * size))
    for j in range(rank):
        f = np.zeros((size, size))
        for _ in range(128):
            fy, fx = rng.integers(1, 65, 2)
            amp = rng.uniform(0.5, 1.0)
            a = fy * axis + rng.uniform(0.0, 2.0 * np.pi)
            b = fx * axis
            # amp * cos(a_i + b_k), as two outer products
            f += amp * (np.outer(np.cos(a), np.cos(b)) - np.outer(np.sin(a), np.sin(b)))
        fields[j] = np.exp(0.5 * f / f.std()).ravel()
    cube = signatures @ fields
    cube *= 0.25 / cube.mean()
    return cube.astype(np.float32).astype(float)


def _write(path: Path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def generate(workload: Workload, seed: int, inputs: Path) -> None:
    """Write the inputs of one run, plus small ones for the warm-up op."""
    inputs.mkdir(parents=True, exist_ok=True)
    phi = camera()
    _write(inputs / "phi.csv", "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in phi).encode())
    for prefix, size in (("", workload.size), ("warm_", WARMUP_SIZE)):
        truth = scene(seed, size)
        rgb = (phi @ truth).astype(np.float32).astype(float)
        _write(inputs / f"{prefix}scene.hsc", oracle.encode_cube(truth, size, size))
        if workload.kind == "recon":
            _write(inputs / f"{prefix}rgb.hsc", oracle.encode_cube(rgb, size, size))
        else:
            _write(inputs / f"{prefix}lift.hsc", oracle.encode_cube(np.linalg.pinv(phi) @ rgb, size, size))


def argv(workload: Workload, inputs: Path, out: Path, warm: bool = False) -> list[str]:
    """The CLI command line of one operation, writing its outputs under ``out``."""
    p = "warm_" if warm else ""
    if workload.kind == "score":
        return [
            "metrics", "--ref", str(inputs / f"{p}scene.hsc"), "--test", str(inputs / f"{p}lift.hsc"),
            "--phi", str(inputs / "phi.csv"), "--out", str(out / "metrics.csv"),
        ]
    cmd = [
        "reconstruct", "--rgb", str(inputs / f"{p}rgb.hsc"), "--phi", str(inputs / "phi.csv"),
        "--stages", str(STAGES), "--lambda", str(LAMBDA),
    ]
    if workload.exact:
        cmd.append("--exact")
    else:
        cmd += ["--rank", "8", "--kappa", "64", "--inner-steps", "3"]
    return cmd + [
        "--out", str(out / "recon.hsc"), "--report", str(out / "report.csv"),
        "--mse-map", str(out / "err.hsc"), "--ref", str(inputs / f"{p}scene.hsc"),
    ]


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        raise oracle.OracleError(f"{path.name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _finite(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise oracle.OracleError(f"{text!r} is not a number") from None
    if not math.isfinite(v):
        raise oracle.OracleError(f"{text!r} is not finite")
    return v


def _close(name: str, got: float, want: float, rtol: float, atol: float = 0.0) -> None:
    if not abs(got - want) <= atol + rtol * abs(want):
        raise oracle.OracleError(f"{name} is {got!r}, expected {want!r}")


class Checker:
    """Checks each operation's outputs against the oracle.

    What every op of the run must agree with is computed once, here;
    ``check(op_dir)`` returns the op's quality numbers and a digest of its
    answer, or raises :class:`oracle.OracleError`.
    """

    def __init__(self, workload: Workload, seed: int, inputs: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.phi = camera()
        self.truth, _, _ = oracle.read_cube(inputs / "scene.hsc")
        self.expected_csv = None
        if workload.kind == "score":
            self._score_reference()

    def _score_reference(self) -> None:
        size = self.workload.size
        lift, _, _ = oracle.read_cube(self.inputs / "lift.hsc")
        rgb = (self.phi @ self.truth).astype(np.float32).astype(float)
        self.quality = {
            "psnr_db": oracle.psnr_db(self.truth, lift),
            "sam_deg": oracle.sam_deg(self.truth, lift),
            "objective_final": oracle.objective(lift, self.phi, rgb, LAMBDA),
        }
        self.ssim = oracle.ssim(self.truth, lift, size, size)
        frozen = json.loads(EXPECTED_FILE.read_text()).get(self.workload.name, {})
        self.expected_csv = frozen.get(str(self.seed))

    def check(self, op_dir: Path) -> tuple[dict, str]:
        if self.workload.kind == "score":
            return self._check_score(op_dir)
        return self._check_recon(op_dir)

    def _check_score(self, op_dir: Path) -> tuple[dict, str]:
        header, rows = _csv_rows(op_dir / "metrics.csv")
        if header != ["psnr_db", "ssim", "sam_deg", "delta_e00"] or len(rows) != 1 or len(rows[0]) != 4:
            raise oracle.OracleError("metrics.csv does not have the documented layout")
        psnr, ssim, sam, de = (_finite(v) for v in rows[0])
        _close("psnr_db", psnr, self.quality["psnr_db"], 1e-9)
        _close("ssim", ssim, self.ssim, 0.0, 1e-9)
        _close("sam_deg", sam, self.quality["sam_deg"], 1e-9)
        if not 0.0 <= de <= MAX_LIFT_DELTA_E00:
            raise oracle.OracleError(f"delta_e00 {de!r} is not round-off for a consistent lift")
        if self.expected_csv is not None:
            for name, got, want, rtol, atol in zip(
                ("psnr_db", "ssim", "sam_deg", "delta_e00"),
                (psnr, ssim, sam, de),
                self.expected_csv,
                (1e-9, 0.0, 1e-9, 0.0),
                (0.0, 1e-9, 0.0, MAX_LIFT_DELTA_E00),
            ):
                _close(f"frozen {name}", got, want, rtol, atol)
        return dict(self.quality), ",".join(rows[0])

    def _check_recon(self, op_dir: Path) -> tuple[dict, str]:
        size = self.workload.size
        raw = (op_dir / "recon.hsc").read_bytes()
        cube, h, w = oracle.decode_cube(raw)
        if cube.shape != self.truth.shape or (h, w) != (size, size):
            raise oracle.OracleError(f"recon.hsc has shape {cube.shape} at {h}x{w}")
        err_raw = (op_dir / "err.hsc").read_bytes()
        err, eh, ew = oracle.decode_cube(err_raw)
        if err.shape != (1, size * size) or (eh, ew) != (size, size):
            raise oracle.OracleError(f"err.hsc has shape {err.shape}")
        want = oracle.mse_map(self.truth, cube)
        if not np.allclose(err[0], want, rtol=1e-4, atol=1e-10):
            raise oracle.OracleError("err.hsc is not the per-pixel MSE of recon.hsc")

        header, rows = _csv_rows(op_dir / "report.csv")
        if header != ["stage", "objective", "fidelity", "elapsed_ns"] or len(rows) != STAGES:
            raise oracle.OracleError("report.csv does not have one row per stage")
        answer = []
        for k, row in enumerate(rows, start=1):
            if len(row) != 4 or row[0] != str(k):
                raise oracle.OracleError(f"report.csv row {k} is malformed")
            obj, fid = _finite(row[1]), _finite(row[2])
            if not 0.0 <= fid <= obj:
                raise oracle.OracleError(f"report.csv row {k}: fidelity {fid} outside [0, {obj}]")
            answer.append(f"{row[1]},{row[2]}")
        objective_final = _finite(rows[-1][1])
        rgb, _, _ = oracle.read_cube(self.inputs / "rgb.hsc")
        # The report is computed before the cube is rounded to float32.
        _close("objective_final", objective_final, oracle.objective(cube, self.phi, rgb, LAMBDA), 1e-4)

        quality = {
            "psnr_db": oracle.psnr_db(self.truth, cube),
            "sam_deg": oracle.sam_deg(self.truth, cube),
            "objective_final": objective_final,
        }
        if quality["psnr_db"] < MIN_PSNR_DB or quality["sam_deg"] > MAX_SAM_DEG:
            raise oracle.OracleError(f"reconstruction quality {quality} is below the floor")
        digest = hashlib.sha256(raw + err_raw + "\n".join(answer).encode()).hexdigest()
        return quality, digest
