"""On-disk cube format, synthetic scenes, and the stand-in camera model.

Cube files are a fixed little-endian layout: magic ``HSC1``, three 32-bit
unsigned dims (bands, height, width), then band-major float32 samples.  The
synthetic pipeline builds low-rank scenes from smooth spectral signatures
and smooth abundances on a fixed 400-700 nm grid.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    CubeFormatError,
    DimensionOverflowError,
    TruncatedCubeError,
)
from .forward_model import (
    ForwardOperator,
    Illuminant,
    RgbImage,
    Sensitivity,
    SpectralCube,
    apply_phi,
    make_phi,
)

CUBE_MAGIC = b"HSC1"
_HEADER = struct.Struct("<4sIII")


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write via a uniquely named temp file in the same directory, then
    rename it into place; on any failure the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def write_cube(path, y: SpectralCube) -> None:
    """Serialize a cube; the write is atomic (temp file plus rename)."""
    for dim in y.dims:
        if dim > 0xFFFFFFFF:
            raise DimensionOverflowError(f"dimension {dim} does not fit a 32-bit field")
    header = _HEADER.pack(CUBE_MAGIC, y.bands, y.h, y.w)
    payload = np.ascontiguousarray(y.data, dtype="<f4").tobytes()
    atomic_write_bytes(path, header + payload)


def read_cube(path) -> SpectralCube:
    """Parse a cube file, validating magic, dims, and payload length."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != CUBE_MAGIC:
        raise BadMagicError(f"{path}: not a cube file (bad magic)")
    if len(raw) < _HEADER.size:
        raise TruncatedCubeError(_HEADER.size, len(raw))
    _, b, h, w = _HEADER.unpack_from(raw)
    if b == 0 or h == 0 or w == 0:
        raise CubeFormatError(f"{path}: zero dimension in header ({b}, {h}, {w})")
    expected = _HEADER.size + 4 * b * h * w
    if len(raw) < expected:
        raise TruncatedCubeError(expected, len(raw))
    if len(raw) > expected:
        raise CubeFormatError(
            f"{path}: {len(raw) - expected} trailing bytes after the declared payload"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(float)
    try:
        return SpectralCube(data.reshape(b, h * w), h, w)
    except ValueError as e:
        # the header checks above leave only the container's finiteness check
        raise CubeFormatError(f"{path}: {e}") from e


def write_rgb(path, img: RgbImage) -> None:
    """Store an RGB image in the cube format with three bands."""
    write_cube(path, SpectralCube(img.data, img.h, img.w))


def read_rgb(path) -> RgbImage:
    cube = read_cube(path)
    if cube.bands != 3:
        raise CubeFormatError(f"{path}: expected a 3-band cube, found {cube.bands} bands")
    return RgbImage(cube.data, cube.h, cube.w)


def save_phi(path, op: ForwardOperator) -> None:
    """Write the 3 x B operator as bare CSV rows."""
    lines = [",".join(format(v, ".17g") for v in row) for row in op.phi]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_phi(path) -> ForwardOperator:
    try:
        phi = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as e:
        raise CubeFormatError(f"{path}: unparseable operator CSV: {e}") from e
    if phi.shape[0] != 3:
        raise CubeFormatError(f"{path}: operator CSV must have 3 rows, found {phi.shape[0]}")
    return ForwardOperator(phi)


def wavelength_grid(b: int) -> np.ndarray:
    """The fixed uniform 400-700 nm sampling used by the synthetic pipeline."""
    if b < 1:
        raise ValueError("band count must be >= 1")
    return np.linspace(400.0, 700.0, b)


def synth_css(b: int) -> Sensitivity:
    """Stand-in camera sensitivity: one Gaussian bump per channel.

    Channels peak at the long, middle, and short thirds of the grid (650,
    550, 450 nm), each row normalized to a maximum of 1.
    """
    if b < 3:
        raise ValueError("need at least 3 bands")
    wl = wavelength_grid(b)
    centers = np.array([650.0, 550.0, 450.0])
    sigma = 50.0
    rows = np.exp(-((wl[None, :] - centers[:, None]) ** 2) / (2.0 * sigma * sigma))
    rows = rows / rows.max(axis=1, keepdims=True)
    return Sensitivity(rows, wl)


def flat_illuminant(b: int) -> Illuminant:
    """Unit-power illuminant on the fixed grid."""
    return Illuminant(np.ones(b), wavelength_grid(b))


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a synthetic low-rank scene."""

    b: int
    h: int
    w: int
    rank: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.b < 1 or self.h < 1 or self.w < 1:
            raise ValueError("dims must be >= 1")
        if not 1 <= self.rank <= self.b:
            raise ValueError(f"rank must lie in [1, {self.b}], got {self.rank}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def synth_scene(spec: SceneSpec) -> SpectralCube:
    """Low-rank synthetic cube: smooth signatures times smooth abundances.

    Signatures are Gaussian bumps on the wavelength grid; abundances are
    positive low-frequency cosine fields.  The noiseless product is scaled
    into [0, 1], so with noise_sigma 0 the output rank equals the recipe
    rank; noise is added before the final clamp.
    """
    rng = np.random.default_rng(spec.seed)
    wl = wavelength_grid(spec.b)
    centers = rng.uniform(430.0, 670.0, spec.rank)
    widths = rng.uniform(30.0, 80.0, spec.rank)
    basis = np.exp(-((wl[:, None] - centers[None, :]) ** 2) / (2.0 * widths[None, :] ** 2))

    yy, xx = np.meshgrid(np.arange(spec.h), np.arange(spec.w), indexing="ij")
    abundances = np.empty((spec.rank, spec.h * spec.w))
    for j in range(spec.rank):
        field = np.zeros((spec.h, spec.w))
        for _ in range(3):
            fy = rng.integers(0, 3)
            fx = rng.integers(0, 3)
            amp = rng.uniform(0.3, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            field += amp * np.cos(2.0 * np.pi * (fy * yy / spec.h + fx * xx / spec.w) + phase)
        field = field - field.min() + 0.05
        abundances[j] = field.ravel()

    cube = basis @ abundances
    peak = cube.max()
    if peak > 0.0:
        cube = cube / peak
    if spec.noise_sigma > 0.0:
        cube = cube + rng.normal(0.0, spec.noise_sigma, cube.shape)
    return SpectralCube(np.clip(cube, 0.0, 1.0), spec.h, spec.w)


def render_rgb(y: SpectralCube, s: Sensitivity, ell: Illuminant) -> RgbImage:
    """Render through the forward operator; delegates to the single model."""
    return apply_phi(make_phi(s, ell), y)
