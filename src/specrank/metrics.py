"""Reconstruction quality metrics: PSNR, SSIM, SAM, CIEDE2000, MSE maps.

SSIM uses the window of Wang et al. (IEEE TIP 2004): the separable 11-tap
Gaussian with sigma 1.5, applied as a 'valid' filter (no border padding)
along the rows and then the columns, one plane at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .forward_model import RgbImage, SpectralCube

PSNR_INF = float("inf")


@dataclass(frozen=True)
class MetricReport:
    psnr_db: float
    ssim: float
    sam_deg: float
    delta_e00: float | None = None


def metric_csv_lines(report: MetricReport) -> list[str]:
    de = "" if report.delta_e00 is None else format(report.delta_e00, ".17g")
    return [
        "psnr_db,ssim,sam_deg,delta_e00",
        f"{format(report.psnr_db, '.17g')},{format(report.ssim, '.17g')},"
        f"{format(report.sam_deg, '.17g')},{de}",
    ]


def _raw(a) -> np.ndarray:
    if isinstance(a, (SpectralCube, RgbImage)):
        return a.data
    return np.asarray(a, dtype=float)


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give +inf."""
    peak = float(peak)
    if not peak > 0.0:
        raise ValueError("peak must be > 0")
    x = _raw(a)
    y = _raw(b)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return PSNR_INF
    return float(10.0 * np.log10(peak * peak / mse))


def _gaussian_taps(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    coords = np.arange(size) - size // 2
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    return g / g.sum()


_SSIM_TAPS = _gaussian_taps()


def _filter_valid(plane: np.ndarray) -> np.ndarray:
    """'Valid' 2-d Gaussian filtering as two 1-d passes of shifted multiply-adds."""
    k = _SSIM_TAPS.size
    h, w = plane.shape
    rows = _SSIM_TAPS[0] * plane[: h - k + 1]
    for i in range(1, k):
        rows += _SSIM_TAPS[i] * plane[i : h - k + 1 + i]
    out = _SSIM_TAPS[0] * rows[:, : w - k + 1]
    for i in range(1, k):
        out += _SSIM_TAPS[i] * rows[:, i : w - k + 1 + i]
    return out


def _ssim_plane(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    k = _SSIM_TAPS.size
    if a.shape[0] < k or a.shape[1] < k:
        raise ValueError(f"window {(k, k)} larger than image {a.shape}")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu_a = _filter_valid(a)
    mu_b = _filter_valid(b)
    s_aa = _filter_valid(a * a) - mu_a * mu_a
    s_bb = _filter_valid(b * b) - mu_b * mu_b
    s_ab = _filter_valid(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * s_ab + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (s_aa + s_bb + c2)
    return float(np.mean(num / den))


def _as_planes(a) -> np.ndarray:
    if isinstance(a, SpectralCube):
        return a.to_bhw()
    if isinstance(a, RgbImage):
        return a.to_planes()
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 2:
        return arr[None, :, :]
    if arr.ndim == 3:
        return arr
    raise DimensionError(f"expected a plane or a plane stack, got shape {arr.shape}")


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean structural similarity with an 11x11 Gaussian window, sigma 1.5.

    The window is separable: 11 normalised 1-d taps filter the rows, then
    the columns, over 'valid' positions only, so an H x W plane yields
    (H - 10) x (W - 10) local scores.  Multi-plane inputs (cubes, RGB images)
    are scored one plane at a time and averaged over planes.
    """
    peak = float(peak)
    if not peak > 0.0:
        raise ValueError("peak must be > 0")
    pa = _as_planes(a)
    pb = _as_planes(b)
    if pa.shape != pb.shape:
        raise DimensionError(f"shape mismatch: {pa.shape} vs {pb.shape}")
    vals = [_ssim_plane(pa[i], pb[i], peak) for i in range(pa.shape[0])]
    return float(np.mean(vals))


def _as_spectra(a) -> np.ndarray:
    if isinstance(a, (SpectralCube, RgbImage)):
        return a.data
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 3:
        return arr.reshape(arr.shape[0], -1)
    if arr.ndim == 2:
        return arr
    raise DimensionError(f"expected per-pixel spectra, got shape {arr.shape}")


def sam_detailed(a, b) -> tuple[float, int]:
    """Mean spectral angle in degrees plus the count of excluded pixels.

    Pixels where either spectrum has zero norm carry no direction and are
    left out of the mean.
    """
    x = _as_spectra(a)
    y = _as_spectra(b)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    ex = np.einsum("bn,bn->n", x, x)
    ey = np.einsum("bn,bn->n", y, y)
    valid = (ex > 0.0) & (ey > 0.0)
    excluded = int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise ValueError("every pixel has a zero-norm spectrum")
    dots = np.einsum("bn,bn->n", x, y)[valid]
    cosang = np.clip(dots / np.sqrt(ex[valid] * ey[valid]), -1.0, 1.0)
    return float(np.degrees(np.arccos(cosang)).mean()), excluded


def sam(a, b) -> float:
    """Mean spectral angle between per-pixel spectra, in degrees."""
    return sam_detailed(a, b)[0]


def mse_map(a, b) -> np.ndarray:
    """Per-pixel mean squared error over bands, as an H x W plane."""
    pa = _as_planes(a)
    pb = _as_planes(b)
    if pa.shape != pb.shape:
        raise DimensionError(f"shape mismatch: {pa.shape} vs {pb.shape}")
    return np.mean((pa - pb) ** 2, axis=0)


# -- color difference --------------------------------------------------------

_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE_D65 = np.array([0.95047, 1.0, 1.08883])


def _lab_f(t: np.ndarray) -> np.ndarray:
    delta = 6.0 / 29.0
    return np.where(t > delta**3, np.cbrt(t), t / (3.0 * delta * delta) + 4.0 / 29.0)


def linear_srgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """Map 3 x N linear sRGB values (D65) to 3 x N CIELAB."""
    rgb = np.asarray(rgb, dtype=float)
    if rgb.ndim != 2 or rgb.shape[0] != 3:
        raise DimensionError(f"expected 3 x N rgb values, got shape {rgb.shape}")
    xyz = _RGB_TO_XYZ @ rgb
    f = _lab_f(xyz / _WHITE_D65[:, None])
    lab = np.empty_like(xyz)
    lab[0] = 116.0 * f[1] - 16.0
    lab[1] = 500.0 * (f[0] - f[1])
    lab[2] = 200.0 * (f[1] - f[2])
    return lab


def ciede2000_lab(lab_a, lab_b) -> np.ndarray:
    """CIEDE2000 color differences between 3 x N Lab arrays (kL=kC=kH=1)."""
    la = np.asarray(lab_a, dtype=float)
    lb = np.asarray(lab_b, dtype=float)
    if la.ndim == 1:
        la = la[:, None]
    if lb.ndim == 1:
        lb = lb[:, None]
    if la.shape != lb.shape or la.shape[0] != 3:
        raise DimensionError("Lab inputs must be aligned 3 x N arrays")
    l1, a1, b1 = la
    l2, a2, b2 = lb
    c1 = np.hypot(a1, b1)
    c2 = np.hypot(a2, b2)
    cbar = 0.5 * (c1 + c2)
    g = 0.5 * (1.0 - np.sqrt(cbar**7 / (cbar**7 + 25.0**7)))
    a1p = (1.0 + g) * a1
    a2p = (1.0 + g) * a2
    c1p = np.hypot(a1p, b1)
    c2p = np.hypot(a2p, b2)
    h1p = np.where((a1p == 0.0) & (b1 == 0.0), 0.0, np.degrees(np.arctan2(b1, a1p)) % 360.0)
    h2p = np.where((a2p == 0.0) & (b2 == 0.0), 0.0, np.degrees(np.arctan2(b2, a2p)) % 360.0)

    dl = l2 - l1
    dc = c2p - c1p
    hdiff = h2p - h1p
    zero_chroma = (c1p * c2p) == 0.0
    dh = np.where(
        zero_chroma,
        0.0,
        np.where(np.abs(hdiff) <= 180.0, hdiff, np.where(hdiff > 180.0, hdiff - 360.0, hdiff + 360.0)),
    )
    dbig_h = 2.0 * np.sqrt(c1p * c2p) * np.sin(np.radians(0.5 * dh))

    lbar = 0.5 * (l1 + l2)
    cbar_p = 0.5 * (c1p + c2p)
    hsum = h1p + h2p
    habs = np.abs(h1p - h2p)
    hbar = np.where(
        zero_chroma,
        hsum,
        np.where(habs <= 180.0, 0.5 * hsum, np.where(hsum < 360.0, 0.5 * (hsum + 360.0), 0.5 * (hsum - 360.0))),
    )
    t = (
        1.0
        - 0.17 * np.cos(np.radians(hbar - 30.0))
        + 0.24 * np.cos(np.radians(2.0 * hbar))
        + 0.32 * np.cos(np.radians(3.0 * hbar + 6.0))
        - 0.20 * np.cos(np.radians(4.0 * hbar - 63.0))
    )
    dtheta = 30.0 * np.exp(-(((hbar - 275.0) / 25.0) ** 2))
    rc = 2.0 * np.sqrt(cbar_p**7 / (cbar_p**7 + 25.0**7))
    sl = 1.0 + 0.015 * (lbar - 50.0) ** 2 / np.sqrt(20.0 + (lbar - 50.0) ** 2)
    sc = 1.0 + 0.045 * cbar_p
    sh = 1.0 + 0.015 * cbar_p * t
    rt = -np.sin(np.radians(2.0 * dtheta)) * rc
    return np.sqrt(
        (dl / sl) ** 2 + (dc / sc) ** 2 + (dbig_h / sh) ** 2 + rt * (dc / sc) * (dbig_h / sh)
    )


def delta_e00(rgb_a: RgbImage, rgb_b: RgbImage) -> float:
    """Mean CIEDE2000 between two images treated as linear sRGB under D65.

    Values outside [0, 1] are clamped first; a warning reports how many.
    """
    arrs = []
    clamped = 0
    for img in (rgb_a, rgb_b):
        a = _raw(img)
        if a.ndim != 2 or a.shape[0] != 3:
            raise DimensionError(f"expected 3 x N rgb values, got shape {a.shape}")
        clamped += int(np.count_nonzero((a < 0.0) | (a > 1.0)))
        arrs.append(np.clip(a, 0.0, 1.0))
    if arrs[0].shape != arrs[1].shape:
        raise DimensionError(f"shape mismatch: {arrs[0].shape} vs {arrs[1].shape}")
    if clamped:
        warnings.warn(f"clamped {clamped} rgb values outside [0, 1]", stacklevel=2)
    lab_a = linear_srgb_to_lab(arrs[0])
    lab_b = linear_srgb_to_lab(arrs[1])
    return float(ciede2000_lab(lab_a, lab_b).mean())
