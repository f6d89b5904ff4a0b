import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specrank.errors import DimensionError
from specrank.forward_model import RgbImage, SpectralCube
from specrank.metrics import (
    MetricReport,
    ciede2000_lab,
    delta_e00,
    linear_srgb_to_lab,
    metric_csv_lines,
    mse_map,
    psnr,
    sam,
    sam_detailed,
    ssim,
)


def _cube(data, h, w):
    return SpectralCube(np.asarray(data, dtype=float), h, w)


# -- PSNR --------------------------------------------------------------------


def test_psnr_identical_is_infinite():
    a = np.random.default_rng(0).standard_normal((4, 9))
    assert psnr(a, a) == float("inf")


def test_psnr_exact_decibel_values():
    a = np.zeros((5, 8))
    assert psnr(a, a + 1.0, peak=10.0) == 20.0  # mse 1, peak^2 100
    assert psnr(a, a + 2.0, peak=2.0) == 0.0  # mse 4, peak^2 4


def test_psnr_matches_scalar_formula():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.0, 1.0, (6, 30))
    b = rng.uniform(0.0, 1.0, (6, 30))
    err = 0.0
    for i in range(6):
        for j in range(30):
            err += (a[i, j] - b[i, j]) ** 2
    mse = err / a.size
    assert psnr(a, b) == pytest.approx(10.0 * math.log10(1.0 / mse), rel=1e-12)


def test_psnr_decreases_with_noise_amplitude():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.0, 1.0, (8, 40))
    noise = rng.standard_normal((8, 40))
    vals = [psnr(a, a + amp * noise) for amp in (0.01, 0.1, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_psnr_validation():
    with pytest.raises(DimensionError):
        psnr(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 3)), np.zeros((2, 3)), peak=0.0)


# -- SSIM --------------------------------------------------------------------


def _ssim_reference(a, b, peak=1.0):
    # direct windowed computation, no convolution machinery
    size, sigma = 11, 1.5
    coords = np.arange(size) - size // 2
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    k /= k.sum()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    h, w = a.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            wa = a[i : i + size, j : j + size]
            wb = b[i : i + size, j : j + size]
            mu_a = (wa * k).sum()
            mu_b = (wb * k).sum()
            s_aa = (wa * wa * k).sum() - mu_a**2
            s_bb = (wb * wb * k).sum() - mu_b**2
            s_ab = (wa * wb * k).sum() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * s_ab + c2)
            den = (mu_a**2 + mu_b**2 + c1) * (s_aa + s_bb + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def test_ssim_identical_is_one():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, (16, 16))
    assert ssim(a, a) == 1.0
    assert ssim(np.full((12, 12), 0.4), np.full((12, 12), 0.4)) == 1.0


def test_ssim_matches_windowed_reference():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 1.0, (20, 18))
    b = np.clip(a + 0.1 * rng.standard_normal((20, 18)), 0.0, 1.0)
    assert ssim(a, b) == pytest.approx(_ssim_reference(a, b), abs=1e-10)


def test_ssim_penalizes_inversion():
    rng = np.random.default_rng(5)
    a = (rng.uniform(0.0, 1.0, (15, 15)) > 0.5).astype(float)
    assert ssim(a, 1.0 - a) < 0.2


def test_ssim_scale_invariance_with_peak():
    rng = np.random.default_rng(6)
    a = rng.uniform(0.0, 1.0, (14, 14))
    b = rng.uniform(0.0, 1.0, (14, 14))
    assert ssim(3.0 * a, 3.0 * b, peak=3.0) == pytest.approx(ssim(a, b), rel=1e-9)


def test_ssim_cube_averages_planes():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, (3, 13, 13))
    b = rng.uniform(0.0, 1.0, (3, 13, 13))
    ca = SpectralCube.from_bhw(a)
    cb = SpectralCube.from_bhw(b)
    per_plane = [ssim(a[i], b[i]) for i in range(3)]
    assert ssim(ca, cb) == pytest.approx(np.mean(per_plane), rel=1e-12)


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError, match="window"):
        ssim(np.zeros((10, 10)), np.zeros((10, 10)))


def _ssim_convolve2d(a, b, peak=1.0):
    # the former implementation: five 2-d 11x11 convolutions per plane
    from scipy.signal import convolve2d

    coords = np.arange(11) - 5
    g = np.exp(-(coords**2) / (2.0 * 1.5 * 1.5))
    k = np.outer(g, g)
    k /= k.sum()
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for pa, pb in zip(np.reshape(a, (-1,) + a.shape[-2:]), np.reshape(b, (-1,) + b.shape[-2:])):
        mu_a = convolve2d(pa, k, mode="valid")
        mu_b = convolve2d(pb, k, mode="valid")
        s_aa = convolve2d(pa * pa, k, mode="valid") - mu_a * mu_a
        s_bb = convolve2d(pb * pb, k, mode="valid") - mu_b * mu_b
        s_ab = convolve2d(pa * pb, k, mode="valid") - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * s_ab + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (s_aa + s_bb + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def test_ssim_frozen_value_on_a_seeded_cube():
    # value of the 2-d convolve2d implementation, frozen before the separable filter
    rng = np.random.default_rng(2024)
    a = rng.uniform(0.0, 1.0, (31, 64 * 64))
    b = np.clip(a + 0.05 * rng.standard_normal((31, 64 * 64)), 0.0, 1.0)
    got = ssim(SpectralCube(a, 64, 64), SpectralCube(b, 64, 64))
    assert got == pytest.approx(0.9851475368474979, abs=1e-12)


@pytest.mark.parametrize("shape", [(11, 11), (11, 40), (40, 11), (256, 256), (3, 17, 23)])
def test_ssim_matches_convolve2d_implementation(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.uniform(0.0, 1.0, shape)
    b = np.clip(a + 0.1 * rng.standard_normal(shape), 0.0, 1.0)
    want = _ssim_convolve2d(a, b)
    if len(shape) == 3:
        a, b = SpectralCube.from_bhw(a), SpectralCube.from_bhw(b)
    assert ssim(a, b) == pytest.approx(want, abs=1e-12)


def test_cli_import_leaves_scipy_signal_out():
    code = "import sys, specrank.cli; sys.exit('scipy.signal' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- SAM ---------------------------------------------------------------------


def test_sam_zero_for_power_of_two_scaling():
    rng = np.random.default_rng(8)
    y = rng.uniform(0.1, 1.0, (6, 25))
    for c in (2.0, 0.5, 4.0):
        assert sam(y, c * y) == 0.0


def test_sam_matches_per_pixel_loop():
    rng = np.random.default_rng(9)
    a = rng.uniform(0.05, 1.0, (5, 18))
    b = rng.uniform(0.05, 1.0, (5, 18))
    angles = []
    for n in range(18):
        dot = float(a[:, n] @ b[:, n])
        na = math.sqrt(float(a[:, n] @ a[:, n]))
        nb = math.sqrt(float(b[:, n] @ b[:, n]))
        angles.append(math.degrees(math.acos(min(1.0, max(-1.0, dot / (na * nb))))))
    assert sam(a, b) == pytest.approx(np.mean(angles), rel=1e-9)


def test_sam_orthogonal_spectra():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert sam(a, b) == pytest.approx(90.0, abs=1e-9)


def test_sam_excludes_and_counts_zero_norm_pixels():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    b = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    mean_deg, excluded = sam_detailed(a, b)
    assert excluded == 1
    # remaining pixels: (1,0) vs (1,1) at 45 degrees, (1,1) vs (1,1) at 0
    assert mean_deg == pytest.approx(45.0 / 2.0, abs=1e-9)


def test_sam_all_zero_pixels_raise():
    with pytest.raises(ValueError):
        sam(np.zeros((4, 5)), np.ones((4, 5)))


# -- MSE maps ----------------------------------------------------------------


def test_mse_map_zero_for_identical():
    rng = np.random.default_rng(10)
    y = _cube(rng.uniform(0.0, 1.0, (4, 12)), 3, 4)
    assert np.array_equal(mse_map(y, y), np.zeros((3, 4)))


def test_mse_map_matches_loop():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 3, 4))
    b = rng.standard_normal((5, 3, 4))
    got = mse_map(a, b)
    assert got.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            want = np.mean([(a[k, i, j] - b[k, i, j]) ** 2 for k in range(5)])
            assert got[i, j] == pytest.approx(want, rel=1e-12)


def test_mse_map_mean_equals_global_mse():
    rng = np.random.default_rng(12)
    a = _cube(rng.standard_normal((6, 20)), 4, 5)
    b = _cube(rng.standard_normal((6, 20)), 4, 5)
    global_mse = float(np.mean((a.data - b.data) ** 2))
    assert abs(float(mse_map(a, b).mean()) - global_mse) <= 1e-12


# -- color difference --------------------------------------------------------


def test_lab_white_and_black_anchors():
    lab = linear_srgb_to_lab(np.array([[1.0], [1.0], [1.0]]))
    assert lab[0, 0] == pytest.approx(100.0, abs=1e-3)
    assert abs(lab[1, 0]) < 1e-2 and abs(lab[2, 0]) < 1e-2
    lab0 = linear_srgb_to_lab(np.zeros((3, 1)))
    assert np.allclose(lab0, 0.0, atol=1e-10)


def test_ciede2000_identical_is_zero():
    rng = np.random.default_rng(13)
    lab = np.vstack([rng.uniform(0, 100, 7), rng.uniform(-60, 60, 7), rng.uniform(-60, 60, 7)])
    assert np.allclose(ciede2000_lab(lab, lab), 0.0, atol=1e-12)


def test_ciede2000_is_symmetric():
    rng = np.random.default_rng(14)
    la = np.vstack([rng.uniform(0, 100, 9), rng.uniform(-60, 60, 9), rng.uniform(-60, 60, 9)])
    lb = np.vstack([rng.uniform(0, 100, 9), rng.uniform(-60, 60, 9), rng.uniform(-60, 60, 9)])
    assert np.allclose(ciede2000_lab(la, lb), ciede2000_lab(lb, la), rtol=1e-12)


def test_ciede2000_lightness_only_pair():
    # neutral grays: only the lightness term is active
    got = float(ciede2000_lab([50.0, 0.0, 0.0], [55.0, 0.0, 0.0])[0])
    lbar = 52.5
    sl = 1.0 + 0.015 * (lbar - 50.0) ** 2 / math.sqrt(20.0 + (lbar - 50.0) ** 2)
    assert got == pytest.approx(5.0 / sl, rel=1e-12)


def test_ciede2000_published_edge_pairs():
    # blue-axis, hue-wraparound, and small-chroma rows of the standard
    # verification set, expected values at their published 4 decimals
    pairs = [
        (50.0000, 2.6772, -79.7751, 50.0000, 0.0000, -82.7485, 2.0425),
        (50.0000, -1.3802, -84.2814, 50.0000, 0.0000, -82.7485, 1.0000),
        (50.0000, 2.4900, -0.0010, 50.0000, -2.4900, 0.0009, 7.1792),
        (50.0000, -0.0010, 2.4900, 50.0000, 0.0011, -2.4900, 4.7461),
        (50.0000, 2.5000, 0.0000, 73.0000, 25.0000, -18.0000, 27.1492),
        (2.0776, 0.0795, -1.1350, 0.9033, -0.0636, -0.5514, 0.9082),
    ]
    for l1, a1, b1, l2, a2, b2, expected in pairs:
        got = float(ciede2000_lab([l1, a1, b1], [l2, a2, b2])[0])
        assert got == pytest.approx(expected, abs=1e-4)


def test_delta_e00_identical_images():
    rng = np.random.default_rng(15)
    x = RgbImage(rng.uniform(0.0, 1.0, (3, 12)), 3, 4)
    assert delta_e00(x, x) == 0.0


def test_delta_e00_warns_and_clamps_out_of_range():
    a = RgbImage(np.full((3, 4), 0.5), 2, 2)
    b = RgbImage(np.full((3, 4), 1.5), 2, 2)
    with pytest.warns(UserWarning, match="clamped"):
        val = delta_e00(a, b)
    white = RgbImage(np.ones((3, 4)), 2, 2)
    assert val == pytest.approx(delta_e00(a, white), rel=1e-12)


def test_delta_e00_grows_with_contrast():
    base = RgbImage(np.full((3, 9), 0.5), 3, 3)
    near = RgbImage(np.full((3, 9), 0.52), 3, 3)
    far = RgbImage(np.full((3, 9), 0.9), 3, 3)
    assert delta_e00(base, near) < delta_e00(base, far)


# -- report serialization ----------------------------------------------------


def test_metric_csv_lines_full_and_partial():
    full = metric_csv_lines(MetricReport(psnr_db=31.5, ssim=0.97, sam_deg=2.25, delta_e00=1.5))
    assert full[0] == "psnr_db,ssim,sam_deg,delta_e00"
    vals = full[1].split(",")
    assert [float(v) for v in vals] == [31.5, 0.97, 2.25, 1.5]
    partial = metric_csv_lines(MetricReport(psnr_db=31.5, ssim=0.97, sam_deg=2.25))
    assert partial[1].endswith(",")
