import struct
import types

import numpy as np
import pytest

from specrank.data_io import (
    CUBE_MAGIC,
    SceneSpec,
    atomic_write_bytes,
    atomic_write_text,
    flat_illuminant,
    load_phi,
    read_cube,
    read_rgb,
    save_phi,
    synth_css,
    synth_scene,
    wavelength_grid,
    write_cube,
    write_rgb,
)
from specrank.errors import (
    BadMagicError,
    CubeFormatError,
    DimensionOverflowError,
    TruncatedCubeError,
)
from specrank.forward_model import (
    ForwardOperator,
    Illuminant,
    RgbImage,
    SpectralCube,
    apply_phi,
    make_phi,
)
from specrank.svt import numerical_rank


def _f4_cube(seed, b=5, h=3, w=4):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, (b, h * w)).astype(np.float32).astype(np.float64)
    return SpectralCube(data, h, w)


# -- cube container ----------------------------------------------------------


def test_cube_roundtrip_is_bitwise(tmp_path):
    y = _f4_cube(0)
    p = tmp_path / "a.hsc"
    write_cube(p, y)
    back = read_cube(p)
    assert back.dims == y.dims
    assert np.array_equal(back.data, y.data)


def test_read_cube_rejects_non_finite_payload_as_format_error(tmp_path):
    y = _f4_cube(2)
    p = tmp_path / "a.hsc"
    write_cube(p, y)
    for bad in (np.nan, np.inf):
        raw = bytearray(p.read_bytes())
        raw[-4:] = np.array([bad], dtype="<f4").tobytes()
        q = tmp_path / "bad.hsc"
        q.write_bytes(bytes(raw))
        with pytest.raises(CubeFormatError, match="must be finite"):
            read_cube(q)


def test_atomic_write_failure_leaves_directory_unchanged(tmp_path):
    (tmp_path / "target").mkdir()
    (tmp_path / "keep.txt").write_text("x")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(OSError):
        atomic_write_bytes(tmp_path / "target", b"payload")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / "target").iterdir()) == []


def test_atomic_write_open_failure_names_the_output_path(tmp_path):
    (tmp_path / "afile").write_text("x")
    out = tmp_path / "afile" / "out.csv"
    with pytest.raises(NotADirectoryError) as info:
        atomic_write_text(out, "x")
    assert info.value.filename == str(out)
    assert ".tmp" not in str(info.value)
    assert [q.name for q in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "x"


def test_atomic_write_replaces_and_leaves_no_temp_file(tmp_path):
    p = tmp_path / "out.bin"
    p.write_bytes(b"old")
    atomic_write_bytes(p, b"new")
    assert p.read_bytes() == b"new"
    assert [q.name for q in tmp_path.iterdir()] == ["out.bin"]


def test_cube_file_bytes_are_reproducible(tmp_path):
    y = _f4_cube(1)
    p1 = tmp_path / "a.hsc"
    p2 = tmp_path / "b.hsc"
    write_cube(p1, y)
    write_cube(p2, read_cube(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_cube_header_layout(tmp_path):
    y = _f4_cube(2, b=6, h=2, w=7)
    p = tmp_path / "a.hsc"
    write_cube(p, y)
    raw = p.read_bytes()
    magic, b, h, w = struct.unpack("<4sIII", raw[:16])
    assert magic == CUBE_MAGIC
    assert (b, h, w) == (6, 2, 7)
    assert len(raw) == 16 + 4 * 6 * 2 * 7
    payload = np.frombuffer(raw[16:], dtype="<f4").reshape(6, 14)
    assert np.array_equal(payload.astype(np.float64), y.data)


def test_read_cube_rejects_bad_magic(tmp_path):
    y = _f4_cube(3)
    p = tmp_path / "a.hsc"
    write_cube(p, y)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_cube(p)


def test_read_cube_rejects_truncation(tmp_path):
    y = _f4_cube(4)
    p = tmp_path / "a.hsc"
    write_cube(p, y)
    raw = p.read_bytes()
    p.write_bytes(raw[:-7])
    with pytest.raises(TruncatedCubeError) as info:
        read_cube(p)
    assert info.value.expected == len(raw)
    assert info.value.actual == len(raw) - 7
    assert str(info.value).startswith(f"{p}: truncated cube file")


def test_read_cube_rejects_trailing_bytes(tmp_path):
    y = _f4_cube(5)
    p = tmp_path / "a.hsc"
    write_cube(p, y)
    p.write_bytes(p.read_bytes() + b"\x00\x00")
    with pytest.raises(CubeFormatError):
        read_cube(p)


def test_read_cube_rejects_zero_dimension(tmp_path):
    p = tmp_path / "a.hsc"
    p.write_bytes(struct.pack("<4sIII", CUBE_MAGIC, 0, 2, 2))
    with pytest.raises(CubeFormatError):
        read_cube(p)


def test_read_cube_rejects_short_header(tmp_path):
    p = tmp_path / "a.hsc"
    p.write_bytes(b"HSC1\x01")
    with pytest.raises(CubeFormatError):
        read_cube(p)


def test_write_cube_rejects_oversized_dims(tmp_path):
    fake = types.SimpleNamespace(
        dims=(1, 2**32, 1), bands=1, h=2**32, w=1, data=np.zeros((1, 1))
    )
    with pytest.raises(DimensionOverflowError):
        write_cube(tmp_path / "a.hsc", fake)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_write_cube_rejects_values_beyond_the_float32_range(tmp_path):
    target = tmp_path / "a.hsc"
    cube = SpectralCube(np.array([[1.0, -1e39]]), 1, 2)
    with pytest.raises(CubeFormatError, match="exceed the float32 range"):
        write_cube(target, cube)
    assert list(tmp_path.iterdir()) == []


def test_write_failure_leaves_no_partial_file(tmp_path):
    fake = types.SimpleNamespace(
        dims=(1, 2**32, 1), bands=1, h=2**32, w=1, data=np.zeros((1, 1))
    )
    target = tmp_path / "a.hsc"
    with pytest.raises(DimensionOverflowError):
        write_cube(target, fake)
    assert list(tmp_path.iterdir()) == []


def test_rgb_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    img = RgbImage(rng.uniform(0.0, 1.0, (3, 6)).astype(np.float32).astype(np.float64), 2, 3)
    p = tmp_path / "img.hsc"
    write_rgb(p, img)
    back = read_rgb(p)
    assert np.array_equal(back.data, img.data)
    assert (back.h, back.w) == (2, 3)


def test_read_rgb_rejects_wrong_band_count(tmp_path):
    p = tmp_path / "a.hsc"
    write_cube(p, _f4_cube(7, b=5))
    with pytest.raises(CubeFormatError):
        read_rgb(p)


# -- operator CSV ------------------------------------------------------------


def test_phi_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    op = ForwardOperator(rng.uniform(0.0, 1.0, (3, 9)))
    p = tmp_path / "phi.csv"
    save_phi(p, op)
    back = load_phi(p)
    assert np.array_equal(back.phi, op.phi)


def test_load_phi_rejects_wrong_row_count(tmp_path):
    p = tmp_path / "phi.csv"
    p.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(CubeFormatError):
        load_phi(p)


def test_load_phi_rejects_garbage(tmp_path):
    p = tmp_path / "phi.csv"
    p.write_text("1,2\nx,y\n3,4\n")
    with pytest.raises(CubeFormatError):
        load_phi(p)


# -- synthetic assets --------------------------------------------------------


def test_wavelength_grid_endpoints():
    wl = wavelength_grid(31)
    assert wl[0] == 400.0
    assert wl[-1] == 700.0
    assert wl.size == 31
    assert np.all(np.diff(wl) > 0)
    assert np.array_equal(wavelength_grid(1), np.array([400.0]))


def test_synth_css_shape_and_peaks():
    s = synth_css(31)
    assert s.matrix.shape == (3, 31)
    assert np.allclose(s.matrix.max(axis=1), 1.0)
    peaks = s.wavelengths[s.matrix.argmax(axis=1)]
    assert peaks[0] > peaks[1] > peaks[2]  # red, green, blue ordering
    for row in s.matrix:
        signs = np.sign(np.diff(row))
        flips = np.count_nonzero(np.diff(signs[signs != 0]) != 0)
        assert flips <= 1  # single-peaked response


def test_flat_illuminant():
    ell = flat_illuminant(16)
    assert np.array_equal(ell.spectrum, np.ones(16))
    assert ell.wavelengths.size == 16


def test_synth_scene_respects_spec():
    spec = SceneSpec(b=16, h=8, w=9, rank=3, noise_sigma=0.0, seed=4)
    y = synth_scene(spec)
    assert y.dims == (16, 8, 9)
    assert y.data.min() >= 0.0
    assert y.data.max() <= 1.0
    assert numerical_rank(y.data) <= 3


def test_synth_scene_rank_one_has_constant_direction():
    from specrank.metrics import sam

    y = synth_scene(SceneSpec(b=12, h=6, w=6, rank=1, seed=9))
    ref = np.tile(y.data[:, :1], (1, y.pixels))
    assert sam(y, SpectralCube(ref, 6, 6)) <= 1e-6


def test_synth_scene_is_seeded():
    a = synth_scene(SceneSpec(b=8, h=5, w=5, rank=2, noise_sigma=0.01, seed=3))
    b = synth_scene(SceneSpec(b=8, h=5, w=5, rank=2, noise_sigma=0.01, seed=3))
    c = synth_scene(SceneSpec(b=8, h=5, w=5, rank=2, noise_sigma=0.01, seed=4))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_synth_scene_noise_expands_rank():
    clean = synth_scene(SceneSpec(b=10, h=7, w=7, rank=2, noise_sigma=0.0, seed=5))
    noisy = synth_scene(SceneSpec(b=10, h=7, w=7, rank=2, noise_sigma=0.05, seed=5))
    assert numerical_rank(noisy.data) > numerical_rank(clean.data)


def test_synth_scene_validation():
    with pytest.raises(ValueError):
        synth_scene(SceneSpec(b=8, h=4, w=4, rank=0))
    with pytest.raises(ValueError):
        synth_scene(SceneSpec(b=8, h=4, w=4, rank=9))
    with pytest.raises(ValueError):
        synth_scene(SceneSpec(b=8, h=4, w=4, rank=2, noise_sigma=-0.1))


def test_render_rgb_scales_linearly_with_illuminant():
    y = synth_scene(SceneSpec(b=8, h=3, w=3, rank=2, seed=7))
    s = synth_css(8)
    ell = flat_illuminant(8)
    doubled = Illuminant(2.0 * ell.spectrum, ell.wavelengths)
    render = apply_phi(make_phi(s, doubled), y).data
    assert np.array_equal(render, 2.0 * apply_phi(make_phi(s, ell), y).data)
