import numpy as np
import pytest

from specrank.cli import run
from specrank.data_io import load_phi, read_cube, read_rgb
from specrank.forward_model import apply_phi


def _synth(tmp_path, name="scene", bands=12, size=16, rank=3, noise=0.0, seed=0):
    cube = tmp_path / f"{name}.hsc"
    rgb = tmp_path / f"{name}_rgb.hsc"
    phi = tmp_path / f"{name}_phi.csv"
    code = run(
        [
            "synth",
            "--bands", str(bands), "--size", str(size), "--rank", str(rank),
            "--noise", str(noise), "--seed", str(seed),
            "--out", str(cube), "--out-rgb", str(rgb), "--out-phi", str(phi),
        ]
    )
    assert code == 0
    return cube, rgb, phi


def test_synth_writes_consistent_artifacts(tmp_path):
    cube_p, rgb_p, phi_p = _synth(tmp_path, bands=10, size=12, rank=2, seed=7)
    cube = read_cube(cube_p)
    rgb = read_rgb(rgb_p)
    op = load_phi(phi_p)
    assert cube.dims == (10, 12, 12)
    assert (rgb.h, rgb.w) == (12, 12)
    rendered = apply_phi(op, cube)
    # rendering of the float32-rounded cube through the float64 operator
    assert np.allclose(rendered.data, rgb.data, atol=1e-5)


def test_synth_is_reproducible_byte_for_byte(tmp_path):
    a = _synth(tmp_path, name="a", seed=5)
    b = _synth(tmp_path, name="b", seed=5)
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_calibrate_recovers_the_operator(tmp_path):
    cube_p, rgb_p, phi_p = _synth(tmp_path, bands=10, size=16, rank=3, noise=0.05)
    est_p = tmp_path / "est_phi.csv"
    code = run(["calibrate", "--rgb", str(rgb_p), "--cube", str(cube_p), "--out-phi", str(est_p)])
    assert code == 0
    true_phi = load_phi(phi_p).phi
    est_phi = load_phi(est_p).phi
    assert np.abs(est_phi - true_phi).max() <= 1e-3


def test_calibrate_singular_pair_exits_4_and_writes_nothing(tmp_path, capsys):
    cube_p, rgb_p, _ = _synth(tmp_path, bands=10, size=16, rank=2, noise=0.0)
    est_p = tmp_path / "est_phi.csv"
    code = run(["calibrate", "--rgb", str(rgb_p), "--cube", str(cube_p), "--out-phi", str(est_p)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: numeric:")
    assert not est_p.exists()


def test_reconstruct_exact_mode_descends(tmp_path):
    cube_p, rgb_p, phi_p = _synth(tmp_path, bands=12, size=16, rank=3)
    out_p = tmp_path / "recon.hsc"
    report_p = tmp_path / "report.csv"
    code = run(
        [
            "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--exact",
            "--stages", "8", "--lambda", "0.001",
            "--out", str(out_p), "--report", str(report_p),
        ]
    )
    assert code == 0
    recon = read_cube(out_p)
    assert recon.dims == (12, 16, 16)
    lines = report_p.read_text().strip().splitlines()
    assert lines[0] == "stage,objective,fidelity,elapsed_ns"
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(objs) == 8
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))


def test_reconstruct_subspace_mode_and_mse_map(tmp_path):
    cube_p, rgb_p, phi_p = _synth(tmp_path, bands=12, size=16, rank=3)
    out_p = tmp_path / "recon.hsc"
    map_p = tmp_path / "err.hsc"
    code = run(
        [
            "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p),
            "--stages", "4", "--lambda", "0.001", "--rank", "4", "--kappa", "32",
            "--out", str(out_p), "--mse-map", str(map_p), "--ref", str(cube_p),
        ]
    )
    assert code == 0
    err = read_cube(map_p)
    assert err.dims == (1, 16, 16)
    ref = read_cube(cube_p)
    recon = read_cube(out_p)
    want = float(np.mean((ref.data - recon.data) ** 2))
    assert float(err.data.mean()) == pytest.approx(want, rel=1e-5)


def test_reconstruct_runs_are_byte_identical(tmp_path):
    _, rgb_p, phi_p = _synth(tmp_path, bands=10, size=12, rank=2)
    outs = []
    for name in ("r1.hsc", "r2.hsc"):
        out_p = tmp_path / name
        code = run(
            [
                "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p),
                "--stages", "3", "--rank", "3", "--kappa", "24", "--seed", "11",
                "--out", str(out_p),
            ]
        )
        assert code == 0
        outs.append(out_p.read_bytes())
    assert outs[0] == outs[1]


def test_reconstruct_calibrate_from_pair(tmp_path):
    cube_p, rgb_p, _ = _synth(tmp_path, bands=10, size=16, rank=3, noise=0.05)
    out_p = tmp_path / "recon.hsc"
    code = run(
        [
            "reconstruct", "--rgb", str(rgb_p),
            "--calibrate-from", str(rgb_p), str(cube_p),
            "--exact", "--stages", "3", "--out", str(out_p),
        ]
    )
    assert code == 0
    assert read_cube(out_p).dims == (10, 16, 16)


def test_usage_errors_exit_2(tmp_path, capsys):
    cube_p, rgb_p, phi_p = _synth(tmp_path)
    cases = [
        ["synth", "--bands", "8", "--size", "8"],  # missing required flags
        ["reconstruct", "--rgb", str(rgb_p), "--out", str(tmp_path / "o.hsc")],  # no operator
        [
            "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p),
            "--calibrate-from", str(rgb_p), str(cube_p), "--out", str(tmp_path / "o.hsc"),
        ],  # both operator sources
        [
            "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p),
            "--out", str(tmp_path / "o.hsc"),
        ],  # subspace mode without --rank/--kappa
        [
            "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--exact",
            "--out", str(tmp_path / "o.hsc"), "--mse-map", str(tmp_path / "m.hsc"),
        ],  # --mse-map without --ref
        ["synth", "--bands", "8", "--size", "8", "--rank", "0", "--out", str(tmp_path / "o.hsc")],
        ["bogus-command"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: usage:")
        assert not (tmp_path / "o.hsc").exists()


def test_io_errors_exit_3(tmp_path, capsys):
    _, rgb_p, phi_p = _synth(tmp_path)
    missing = str(tmp_path / "missing.hsc")
    assert run(["reconstruct", "--rgb", missing, "--phi", str(phi_p), "--exact",
                "--out", str(tmp_path / "o.hsc")]) == 3
    assert capsys.readouterr().err.startswith("error: io:")
    corrupt = tmp_path / "corrupt.hsc"
    corrupt.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert run(["metrics", "--ref", str(corrupt), "--test", str(corrupt),
                "--out", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err.startswith("error: io:")
    assert not (tmp_path / "o.hsc").exists()
    assert not (tmp_path / "m.csv").exists()


def test_non_finite_cube_payload_exits_3(tmp_path, capsys):
    cube_p, _, _ = _synth(tmp_path)
    raw = bytearray(cube_p.read_bytes())
    raw[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    bad = tmp_path / "nan.hsc"
    bad.write_bytes(bytes(raw))
    out_p = tmp_path / "m.csv"
    assert run(["metrics", "--ref", str(cube_p), "--test", str(bad), "--out", str(out_p)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: io: {bad}: cube values must be finite\n"
    assert not out_p.exists()


def test_failed_run_leaves_no_output(tmp_path):
    _, rgb_p, _ = _synth(tmp_path)
    out_p = tmp_path / "recon.hsc"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(tmp_path / "nope.csv"),
                "--exact", "--out", str(out_p)])
    assert code == 3
    assert not out_p.exists()


@pytest.mark.filterwarnings("ignore:clamped")
def test_metrics_command_scores_identical_cubes(tmp_path):
    cube_p, _, phi_p = _synth(tmp_path, bands=10, size=16, rank=3)
    out_p = tmp_path / "metrics.csv"
    code = run(["metrics", "--ref", str(cube_p), "--test", str(cube_p),
                "--phi", str(phi_p), "--out", str(out_p)])
    assert code == 0
    header, values = out_p.read_text().strip().splitlines()
    assert header == "psnr_db,ssim,sam_deg,delta_e00"
    p, s, a, de = values.split(",")
    assert float(p) == float("inf")
    assert float(s) == 1.0
    assert float(a) == 0.0
    assert float(de) == 0.0


def test_metrics_without_phi_leaves_color_field_empty(tmp_path):
    cube_p, _, _ = _synth(tmp_path, name="a", bands=10, size=16, rank=3, seed=1)
    other_p, _, _ = _synth(tmp_path, name="b", bands=10, size=16, rank=3, seed=2)
    out_p = tmp_path / "metrics.csv"
    code = run(["metrics", "--ref", str(cube_p), "--test", str(other_p), "--out", str(out_p)])
    assert code == 0
    values = out_p.read_text().strip().splitlines()[1]
    fields = values.split(",")
    assert fields[3] == ""
    assert np.isfinite(float(fields[0]))
    assert 0.0 < float(fields[1]) <= 1.0
    assert float(fields[2]) > 0.0


def test_svt_bench_report_layout(tmp_path):
    out_p = tmp_path / "bench.csv"
    code = run(["svt-bench", "--d", "24", "--n", "48", "--r", "4", "--seeds", "3",
                "--out", str(out_p)])
    assert code == 0
    lines = out_p.read_text().strip().splitlines()
    assert lines[0] == "method,seed,d,n,r,rel_err,elapsed_ns"
    assert len(lines) == 1 + 3 * 3
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == ("full", "gram", "lrsp")[i % 3]
        assert int(fields[1]) == i // 3
        assert fields[2:5] == ["24", "48", "4"]
        rel = float(fields[5])
        assert np.isfinite(rel) and rel >= 0.0
        if fields[0] == "full":
            assert rel == 0.0
        if fields[0] == "gram":
            assert rel <= 1e-8
        assert int(fields[6]) > 0
