"""Reference computations the benchmark checks the program against.

Everything here uses plain numpy and never imports specrank, so a change to
the program's metrics, file format or solver cannot also change the yardstick
it is measured with.
"""

from __future__ import annotations

import struct

import numpy as np

CUBE_MAGIC = b"HSC1"
_HEADER = struct.Struct("<4sIII")

# The SSIM definition the program documents: 11 x 11 Gaussian window,
# sigma 1.5, constants (0.01 peak)^2 and (0.03 peak)^2, 'valid' borders.
_SSIM_TAPS = 11
_SSIM_SIGMA = 1.5


class OracleError(Exception):
    """An output file does not hold what the program promised."""


def encode_cube(data: np.ndarray, h: int, w: int) -> bytes:
    """HSC1 bytes for a B x (h*w) array: magic, three uint32 dims, float32."""
    b = data.shape[0]
    payload = np.ascontiguousarray(data, dtype="<f4").tobytes()
    return _HEADER.pack(CUBE_MAGIC, b, h, w) + payload


def decode_cube(raw: bytes) -> tuple[np.ndarray, int, int]:
    """Parse HSC1 bytes into (B x N float64 array, h, w); raise on any defect."""
    if len(raw) < _HEADER.size or raw[:4] != CUBE_MAGIC:
        raise OracleError("not an HSC1 cube")
    _, b, h, w = _HEADER.unpack_from(raw)
    if len(raw) != _HEADER.size + 4 * b * h * w:
        raise OracleError(f"payload is {len(raw) - _HEADER.size} bytes, header says {4 * b * h * w}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(float).reshape(b, h * w)
    if not np.all(np.isfinite(data)):
        raise OracleError("cube holds non-finite values")
    return data, h, w


def read_cube(path) -> tuple[np.ndarray, int, int]:
    with open(path, "rb") as fh:
        return decode_cube(fh.read())


def psnr_db(ref: np.ndarray, test: np.ndarray, peak: float = 1.0) -> float:
    mse = float(np.mean((ref - test) ** 2))
    return float(10.0 * np.log10(peak * peak / mse))


def sam_deg(ref: np.ndarray, test: np.ndarray) -> float:
    """Mean spectral angle in degrees over pixels where both spectra are nonzero."""
    nr = np.sqrt(np.sum(ref * ref, axis=0))
    nt = np.sqrt(np.sum(test * test, axis=0))
    keep = (nr > 0.0) & (nt > 0.0)
    cos = np.sum(ref * test, axis=0)[keep] / (nr[keep] * nt[keep])
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).mean())


def _filter_valid(plane: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable 'valid' filtering by the same 1-d taps along both axes."""
    k = taps.size
    h, w = plane.shape
    rows = sum(taps[i] * plane[i : h - k + 1 + i, :] for i in range(k))
    return sum(taps[i] * rows[:, i : w - k + 1 + i] for i in range(k))


def ssim(ref: np.ndarray, test: np.ndarray, h: int, w: int, peak: float = 1.0) -> float:
    """Mean SSIM over bands, computed plane by plane with a separable window."""
    x = np.arange(_SSIM_TAPS) - _SSIM_TAPS // 2
    taps = np.exp(-(x * x) / (2.0 * _SSIM_SIGMA**2))
    taps /= taps.sum()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for a, b in zip(ref.reshape(-1, h, w), test.reshape(-1, h, w)):
        mu_a = _filter_valid(a, taps)
        mu_b = _filter_valid(b, taps)
        var_a = _filter_valid(a * a, taps) - mu_a * mu_a
        var_b = _filter_valid(b * b, taps) - mu_b * mu_b
        cov = _filter_valid(a * b, taps) - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def objective(cube: np.ndarray, phi: np.ndarray, rgb: np.ndarray, lam: float) -> float:
    """0.5 ||phi Y - X||_F^2 + lam ||Y||_*, the solver's objective with T = identity."""
    fidelity = 0.5 * float(np.linalg.norm(phi @ cube - rgb) ** 2)
    return fidelity + lam * float(np.linalg.svd(cube, compute_uv=False).sum())


def mse_map(ref: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Per-pixel mean squared error over bands, flattened to length N."""
    return np.mean((ref - test) ** 2, axis=0)
