import numpy as np
import pytest

from specrank.errors import DimensionError, SingularSystemError, SpectraFormatError
from specrank.forward_model import (
    ForwardOperator,
    Illuminant,
    RgbImage,
    Sensitivity,
    SpectralCube,
    apply_phi,
    apply_phi_adjoint,
    estimate_illuminant,
    estimate_phi_ls,
    load_illuminant,
    load_sensitivity,
    make_phi,
    save_illuminant,
    save_sensitivity,
    spectral_norm_sq,
)

WL6 = np.arange(400.0, 460.0, 10.0)


def _sensitivity(matrix, wl=None):
    matrix = np.asarray(matrix, dtype=float)
    if wl is None:
        wl = 400.0 + 10.0 * np.arange(matrix.shape[1])
    return Sensitivity(matrix, wl)


def _cube(data):
    data = np.asarray(data, dtype=float)
    return SpectralCube(data, 1, data.shape[1])


def _rgb(data):
    data = np.asarray(data, dtype=float)
    return RgbImage(data, 1, data.shape[1])


def test_make_phi_identity_illuminant():
    s = _sensitivity(np.hstack([np.eye(3), np.zeros((3, 3))]))
    ell = Illuminant(np.ones(6), s.wavelengths)
    op = make_phi(s, ell)
    assert np.array_equal(op.phi, s.matrix)


def test_make_phi_scales_columns():
    s = _sensitivity(np.ones((3, 2)), wl=[500.0, 510.0])
    ell = Illuminant([2.0, 3.0], [500.0, 510.0])
    op = make_phi(s, ell)
    assert np.array_equal(op.phi, np.array([[2.0, 3.0]] * 3))


def test_make_phi_matches_entrywise_product():
    rng = np.random.default_rng(0)
    s = _sensitivity(rng.uniform(0.0, 1.0, (3, 12)))
    ell = Illuminant(rng.uniform(0.1, 2.0, 12), s.wavelengths)
    op = make_phi(s, ell)
    for c in range(3):
        for b in range(12):
            assert op.phi[c, b] == s.matrix[c, b] * ell.spectrum[b]


def test_make_phi_rejects_mismatched_grids():
    s = _sensitivity(np.ones((3, 4)))
    ell = Illuminant(np.ones(4), s.wavelengths + 5.0)
    with pytest.raises(DimensionError):
        make_phi(s, ell)


def test_apply_phi_selects_bands_under_padded_identity():
    op = ForwardOperator(np.hstack([np.eye(3), np.zeros((3, 2))]))
    y = _cube(np.arange(20.0).reshape(5, 4))
    x = apply_phi(op, y)
    assert np.array_equal(x.data, y.data[:3])


def test_apply_phi_zero_cube_gives_zero_image():
    op = ForwardOperator(np.ones((3, 6)))
    x = apply_phi(op, _cube(np.zeros((6, 7))))
    assert np.array_equal(x.data, np.zeros((3, 7)))


def test_apply_phi_matches_naive_triple_loop():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((3, 8))
    y = rng.standard_normal((8, 16))
    x = apply_phi(ForwardOperator(phi), _cube(y))
    naive = np.zeros((3, 16))
    for c in range(3):
        for n in range(16):
            for b in range(8):
                naive[c, n] += phi[c, b] * y[b, n]
    assert np.allclose(x.data, naive, atol=1e-12)


def test_adjoint_embeds_under_padded_identity():
    op = ForwardOperator(np.hstack([np.eye(3), np.zeros((3, 2))]))
    x = _rgb(np.arange(6.0).reshape(3, 2))
    y = apply_phi_adjoint(op, x)
    assert np.array_equal(y.data[:3], x.data)
    assert np.array_equal(y.data[3:], np.zeros((2, 2)))


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        op = ForwardOperator(rng.standard_normal((3, 10)))
        y = _cube(rng.standard_normal((10, 9)))
        x = _rgb(rng.standard_normal((3, 9)))
        lhs = float(np.vdot(apply_phi(op, y).data, x.data))
        rhs = float(np.vdot(y.data, apply_phi_adjoint(op, x).data))
        scale = np.linalg.norm(y.data) * np.linalg.norm(x.data) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_estimate_phi_recovers_noiseless_operator():
    rng = np.random.default_rng(3)
    phi_true = rng.uniform(0.0, 1.0, (3, 6))
    y = _cube(rng.standard_normal((6, 200)))
    x = apply_phi(ForwardOperator(phi_true), y)
    est = estimate_phi_ls(x, y)
    assert np.allclose(est.phi, phi_true, atol=1e-8)


@pytest.mark.filterwarnings("ignore:estimated phi")
def test_estimate_phi_orthogonal_design_closed_form():
    # Y = identity tiled k times, so Y Y.T = k I and phi = X Y.T / k
    k = 4
    y = _cube(np.hstack([np.eye(5)] * k))
    rng = np.random.default_rng(4)
    x = _rgb(rng.standard_normal((3, 5 * k)))
    est = estimate_phi_ls(x, y)
    assert np.allclose(est.phi, x.data @ y.data.T / k, atol=1e-12)


@pytest.mark.filterwarnings("ignore:estimated phi")
def test_estimate_phi_ridge_shrinks_toward_zero():
    rng = np.random.default_rng(5)
    y = _cube(rng.standard_normal((6, 50)))
    x = _rgb(rng.standard_normal((3, 50)))
    norms = [np.linalg.norm(estimate_phi_ls(x, y, ridge=r).phi) for r in [0.0, 1.0, 1e6]]
    assert norms[0] >= norms[1] >= norms[2]
    assert norms[2] < 1e-3 * norms[0]


@pytest.mark.filterwarnings("ignore:estimated phi")
def test_estimate_phi_singular_without_ridge():
    rng = np.random.default_rng(6)
    basis = rng.standard_normal((6, 2))
    y = _cube(basis @ rng.standard_normal((2, 40)))  # rank-2 spectra
    x = _rgb(rng.standard_normal((3, 40)))
    with pytest.raises(SingularSystemError):
        estimate_phi_ls(x, y)
    est = estimate_phi_ls(x, y, ridge=1e-6)
    assert np.all(np.isfinite(est.phi))


def test_estimate_phi_warns_on_negative_entries():
    y = _cube(np.eye(3))
    x = _rgb(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -0.5, 1.0]]))
    with pytest.warns(UserWarning, match="negative"):
        est = estimate_phi_ls(x, y)
    assert est.phi.min() < 0


def test_estimate_illuminant_exact_roundtrip_on_dyadic_data():
    # powers-of-two sensitivities and short-mantissa illuminant keep every
    # product and sum exact, so recovery is bitwise
    s = _sensitivity(
        [
            [1.0, 0.5, 0.0, 0.25],
            [0.5, 1.0, 0.25, 0.0],
            [0.0, 0.25, 1.0, 0.5],
        ]
    )
    ell = Illuminant([0.75, 1.5, 2.0, 0.5], s.wavelengths)
    back = estimate_illuminant(s, make_phi(s, ell))
    assert np.array_equal(back.spectrum, ell.spectrum)


def test_estimate_illuminant_random_roundtrip():
    rng = np.random.default_rng(7)
    s = _sensitivity(rng.uniform(0.05, 1.0, (3, 16)))
    ell = Illuminant(rng.uniform(0.1, 2.0, 16), s.wavelengths)
    back = estimate_illuminant(s, make_phi(s, ell))
    assert np.allclose(back.spectrum, ell.spectrum, rtol=1e-12)


def test_estimate_illuminant_doubled_operator():
    s = _sensitivity(np.abs(np.random.default_rng(8).standard_normal((3, 5))) + 0.1)
    op = ForwardOperator(2.0 * s.matrix)
    back = estimate_illuminant(s, op)
    assert np.array_equal(back.spectrum, np.full(5, 2.0))


def test_estimate_illuminant_orthogonal_column_clamps_to_zero():
    s = _sensitivity([[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    phi = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    back = estimate_illuminant(s, ForwardOperator(phi))
    assert back.spectrum[0] == 0.0


def test_spectral_norm_sq_diagonal():
    op = ForwardOperator(np.diag([2.0, 3.0, 0.0]))
    assert spectral_norm_sq(op) == pytest.approx(9.0, rel=1e-8)


def test_spectral_norm_sq_zero_operator():
    assert spectral_norm_sq(ForwardOperator(np.zeros((3, 4)))) == 0.0


def test_spectral_norm_sq_matches_svd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = rng.standard_normal((3, 31))
        got = spectral_norm_sq(ForwardOperator(phi))
        want = np.linalg.svd(phi, compute_uv=False)[0] ** 2
        assert got == pytest.approx(want, rel=1e-12)


def test_spectral_norm_sq_close_top_singular_values(close_gap_phi):
    for seed in range(20):
        phi = close_gap_phi(seed)
        s = np.linalg.svd(phi, compute_uv=False)
        assert s[0] - s[1] == pytest.approx(1e-4, rel=1e-6)
        assert spectral_norm_sq(ForwardOperator(phi)) == pytest.approx(s[0] ** 2, rel=1e-12)


def test_sensitivity_rejects_negative_and_dead_channels():
    with pytest.raises(ValueError):
        _sensitivity([[1.0, -0.1], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        _sensitivity([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def test_cube_shape_validation():
    with pytest.raises(DimensionError):
        SpectralCube(np.zeros((4, 6)), 2, 4)  # N != h * w
    with pytest.raises(DimensionError):
        SpectralCube(np.zeros(4), 2, 2)


def test_cube_bhw_roundtrip():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 3, 4))
    y = SpectralCube.from_bhw(stack)
    assert y.dims == (5, 3, 4)
    assert np.array_equal(y.to_bhw(), stack)


def test_spectra_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    s = _sensitivity(rng.uniform(0.0, 1.0, (3, 9)) + 0.01)
    ell = Illuminant(rng.uniform(0.1, 2.0, 9), s.wavelengths)
    sp = tmp_path / "s.csv"
    ep = tmp_path / "e.csv"
    save_sensitivity(sp, s)
    save_illuminant(ep, ell)
    s2 = load_sensitivity(sp)
    e2 = load_illuminant(ep)
    assert np.array_equal(s2.matrix, s.matrix)
    assert np.array_equal(s2.wavelengths, s.wavelengths)
    assert np.array_equal(e2.spectrum, ell.spectrum)


def test_spectra_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nm,v1\n400,1.0\n")
    with pytest.raises(SpectraFormatError):
        load_illuminant(p)


def test_spectra_csv_rejects_wrong_column_count(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wavelength_nm,v1,v2,v3\n400,1.0,1.0,1.0\n410,1.0,1.0\n")
    with pytest.raises(SpectraFormatError):
        load_sensitivity(p)


def test_spectra_csv_rejects_non_increasing_wavelengths(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wavelength_nm,v1\n410,1.0\n400,1.0\n")
    with pytest.raises(SpectraFormatError):
        load_illuminant(p)


def test_spectra_csv_rejects_unparseable_value(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wavelength_nm,v1\n400,abc\n")
    with pytest.raises(SpectraFormatError):
        load_illuminant(p)
