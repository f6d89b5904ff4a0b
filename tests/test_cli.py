import hashlib

import numpy as np
import pytest

from specrank.cli import run
from specrank.data_io import load_phi, read_cube, read_rgb, save_phi, write_rgb
from specrank.forward_model import ForwardOperator, apply_phi
from specrank.lrsp import LrspConfig


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


def test_reconstruct_subspace_mode_descends(tmp_path):
    # rank 8 is at least rank(phi) = 3, so the budget does not bind
    _, rgb_p, phi_p = _synth(tmp_path, bands=31, size=16, rank=3)
    report_p = tmp_path / "report.csv"
    code = run(
        [
            "reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--rank", "8", "--kappa", "64",
            "--stages", "6", "--out", str(tmp_path / "recon.hsc"), "--report", str(report_p),
        ]
    )
    assert code == 0
    objs = [float(line.split(",")[1]) for line in report_p.read_text().strip().splitlines()[1:]]
    assert len(objs) == 6
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


def test_reconstruct_auto_eta_with_close_top_singular_values(tmp_path, close_gap_phi):
    cube_p, _, _ = _synth(tmp_path, bands=31, size=8, rank=3)
    op = ForwardOperator(close_gap_phi(0))
    rgb_p = tmp_path / "gap_rgb.hsc"
    phi_p = tmp_path / "gap_phi.csv"
    write_rgb(rgb_p, apply_phi(op, read_cube(cube_p)))
    save_phi(phi_p, op)
    out_p = tmp_path / "recon.hsc"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--exact",
                "--eta", "auto", "--stages", "3", "--out", str(out_p)])
    assert code == 0
    assert read_cube(out_p).dims == (31, 8, 8)


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


def test_oversized_budget_exits_2(tmp_path, capsys):
    _, rgb_p, phi_p = _synth(tmp_path, size=16)
    out_p = tmp_path / "o.hsc"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p),
                "--rank", "4", "--kappa", "257", "--out", str(out_p)])
    assert code == 2
    assert capsys.readouterr().err == "error: usage: column budget 257 exceeds 256 columns\n"
    assert not out_p.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", [["--exact"], ["--rank", "8", "--kappa", "64"]])
@pytest.mark.parametrize(
    "step",
    [["--eta", "1e200"], ["--eta", "1.7e308", "--init", "zeros"]],
    ids=["overflow-in-proximal", "overflow-in-gradient-step"],
)
def test_overflowing_step_size_exits_4(tmp_path, capsys, mode, step):
    _, rgb_p, phi_p = _synth(tmp_path, bands=31, size=16, rank=4)
    before = sorted(tmp_path.iterdir())
    out_p = tmp_path / "o.hsc"
    report_p = tmp_path / "r.csv"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), *step, *mode,
                "--out", str(out_p), "--report", str(report_p)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric: stage ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


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


def test_missing_report_directory_exits_3_before_solving(tmp_path, capsys, monkeypatch):
    _, rgb_p, phi_p = _synth(tmp_path)
    before = sorted(tmp_path.iterdir())

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve must not start")

    monkeypatch.setattr("specrank.cli.unfold_solve", no_solve)
    report_p = tmp_path / "missing" / "r.csv"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--exact",
                "--out", str(tmp_path / "o.hsc"), "--report", str(report_p)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: io: {report_p}: {report_p.parent} is not an existing directory\n"
    assert sorted(tmp_path.iterdir()) == before


def test_synth_missing_output_directory_exits_3_and_writes_nothing(tmp_path, capsys):
    phi_p = tmp_path / "missing" / "phi.csv"
    code = run(["synth", "--bands", "8", "--size", "8", "--rank", "2",
                "--out", str(tmp_path / "s.hsc"), "--out-rgb", str(tmp_path / "r.hsc"),
                "--out-phi", str(phi_p)])
    assert code == 3
    assert capsys.readouterr().err == f"error: io: {phi_p}: {phi_p.parent} is not an existing directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["reconstruct --report", "synth --out-phi"])
def test_output_path_that_is_a_directory_exits_3_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command
):
    _, rgb_p, phi_p = _synth(tmp_path)
    taken = tmp_path / "taken"
    taken.mkdir()
    before = sorted(tmp_path.iterdir())

    def no_work(*args, **kwargs):
        raise AssertionError("no work may start")

    monkeypatch.setattr("specrank.cli.unfold_solve", no_work)
    monkeypatch.setattr("specrank.cli.synth_scene", no_work)
    argv = {
        "reconstruct --report": ["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p),
                                 "--exact", "--out", str(tmp_path / "y.hsc"), "--report", str(taken)],
        "synth --out-phi": ["synth", "--bands", "8", "--size", "8", "--rank", "2",
                            "--out", str(tmp_path / "s.hsc"), "--out-phi", str(taken)],
    }[command]
    assert run(argv) == 3
    assert capsys.readouterr().err == f"error: io: {taken}: is a directory\n"
    assert sorted(tmp_path.iterdir()) == before
    assert list(taken.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cube_beyond_the_float32_range_exits_3_and_writes_nothing(tmp_path, capsys):
    # a pseudoinverse lift through a 1e-160 operator is about 1e160, finite in
    # float64 and far beyond the float32 samples of the cube format
    _, rgb_p, phi_p = _synth(tmp_path, bands=31, size=16, rank=4)
    tiny_p = tmp_path / "tiny.csv"
    save_phi(tiny_p, ForwardOperator(1e-160 * load_phi(phi_p).phi))
    before = sorted(tmp_path.iterdir())
    out_p = tmp_path / "y.hsc"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(tiny_p), "--exact",
                "--eta", "1.0", "--stages", "2", "--out", str(out_p)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: io: {out_p}: cube values exceed the float32 range of the format\n"
    assert sorted(tmp_path.iterdir()) == before


# A malformed operator CSV, by file content, and the one stderr line it gives.
_BAD_OPERATORS = {
    "nan-entry": ("1,nan,0\n0,1,0\n0,0,1\n", "phi entries must be finite"),
    "inf-entry": ("1,0,0\n0,1,0\n0,0,inf\n", "phi entries must be finite"),
    "empty": ("", "operator CSV must have 3 rows, found 0"),
}


# numpy's loadtxt warns on an empty file; as an error the warning would escape run()
@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("case", list(_BAD_OPERATORS))
@pytest.mark.parametrize("command", ["reconstruct", "metrics"])
def test_malformed_operator_csv_exits_3_naming_its_file(tmp_path, capsys, command, case):
    cube_p, rgb_p, _ = _synth(tmp_path, bands=3)
    content, message = _BAD_OPERATORS[case]
    bad_p = tmp_path / "bad.csv"
    bad_p.write_text(content)
    before = sorted(tmp_path.iterdir())
    out_p = tmp_path / "out"
    argv = {
        "reconstruct": ["reconstruct", "--rgb", str(rgb_p), "--exact", "--out", str(out_p)],
        "metrics": ["metrics", "--ref", str(cube_p), "--test", str(cube_p), "--out", str(out_p)],
    }[command]
    assert run(argv + ["--phi", str(bad_p)]) == 3
    assert capsys.readouterr().err == f"error: io: {bad_p}: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("flag", ["--ref", "--test"])
def test_truncated_cube_exits_3_naming_its_file(tmp_path, capsys, flag):
    cube_p, _, _ = _synth(tmp_path)
    raw = cube_p.read_bytes()
    trunc_p = tmp_path / "trunc.hsc"
    trunc_p.write_bytes(raw[:100])
    cubes = {"--ref": cube_p, "--test": cube_p, flag: trunc_p}
    out_p = tmp_path / "m.csv"
    code = run(["metrics", "--ref", str(cubes["--ref"]), "--test", str(cubes["--test"]),
                "--out", str(out_p)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: io: {trunc_p}: truncated cube file: expected {len(raw)} bytes, found 100\n"
    assert not out_p.exists()


@pytest.mark.parametrize("extra", ["--out-rgb", "--out-phi"])
def test_synth_too_few_bands_exits_2_and_writes_nothing(tmp_path, capsys, extra):
    code = run(["synth", "--bands", "2", "--size", "8", "--rank", "1",
                "--out", str(tmp_path / "s.hsc"), extra, str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "error: usage: need at least 3 bands\n"
    assert list(tmp_path.iterdir()) == []


def test_mismatched_ref_exits_2_and_writes_nothing(tmp_path, capsys):
    _, rgb_p, phi_p = _synth(tmp_path, name="big", size=32)
    small_p, _, _ = _synth(tmp_path, name="small", size=16)
    before = sorted(tmp_path.iterdir())
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--exact",
                "--out", str(tmp_path / "o.hsc"), "--report", str(tmp_path / "r.csv"),
                "--mse-map", str(tmp_path / "m.hsc"), "--ref", str(small_p)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage: shape mismatch")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


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


# Every operator flag set away from its default.
_OPERATOR_FLAGS = [
    "--probes", "5", "--inner-steps", "2", "--tau0", "2.0",
    "--gamma", "0.7", "--tau-min", "0.2", "--beta1", "0.8", "--c-beta", "0.3",
    "--nu", "5.0", "--mu", "0.3", "--seed", "7",
]


@pytest.mark.parametrize(
    ("mode", "objective", "cube_norm"),
    [
        (["--exact"], 0.18386263168489936, 74.70387177856416),
        (["--rank", "2", "--kappa", "48", *_OPERATOR_FLAGS], 906.1758754238768, 76.50402535163362),
    ],
    ids=["exact", "subspace-every-flag"],
)
def test_reconstruct_frozen_final_objective_and_cube_norm(tmp_path, mode, objective, cube_norm):
    _, rgb_p, phi_p = _synth(tmp_path, bands=31, size=32, rank=4, noise=0.02, seed=4)
    out_p = tmp_path / "o.hsc"
    report_p = tmp_path / "r.csv"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--stages", "5",
                "--lambda", "0.002", *mode, "--out", str(out_p), "--report", str(report_p)])
    assert code == 0
    final = float(report_p.read_text().strip().splitlines()[-1].split(",")[1])
    assert final == pytest.approx(objective, rel=1e-9)
    assert float(np.linalg.norm(read_cube(out_p).data)) == pytest.approx(cube_norm, rel=1e-9)


# SHA-256 of the cube, the MSE map and the report's stage, objective and
# fidelity columns of a 12-stage reconstruct (--lambda 0.001) on
# synth --bands 31 --size 64 --rank 4 --seed 3 --noise 0.01.  They were frozen
# from runs that fixed the subspace threshold by hand at lam * eta =
# 7.52541018797723e-05 (eta = 1 / ||phi||_2^2), the threshold the solver now
# derives at every stage.
_LAM_ETA_DIGESTS = {
    "r8": (["--rank", "8", "--kappa", "64", "--inner-steps", "3"],
           "2c2852794bd8a0062298906240f286a373dcdb81543ff7d6511ce2fede463384"),
    "r2-every-flag": (["--rank", "2", "--kappa", "32", *_OPERATOR_FLAGS],
                      "e2ab468585a661db2daf8d7221ef89a91c4566a14ef9dcad156fdedfb969c034"),
    "r3-zeros": (["--rank", "3", "--kappa", "16", "--init", "zeros"],
                 "6736c3f34ad4b97e9c095f21b1897c97ea43c0a5dee01d6560eb3483e820b5e9"),
    "r1-adjoint": (["--rank", "1", "--kappa", "8", "--init", "adjoint"],
                   "306178c3ebf8ceebb3db1ebe1836b4596420c1e1a01abc739ff4ad6bea4d5033"),
}


@pytest.mark.parametrize("case", list(_LAM_ETA_DIGESTS))
def test_reconstruct_subspace_outputs_equal_the_fixed_lam_eta_threshold_runs(tmp_path, case):
    flags, digest = _LAM_ETA_DIGESTS[case]
    cube_p, rgb_p, phi_p = _synth(tmp_path, bands=31, size=64, rank=4, noise=0.01, seed=3)
    out_p, map_p, report_p = tmp_path / "o.hsc", tmp_path / "m.hsc", tmp_path / "r.csv"
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--stages", "12",
                "--lambda", "0.001", *flags, "--out", str(out_p), "--report", str(report_p),
                "--mse-map", str(map_p), "--ref", str(cube_p)])
    assert code == 0
    h = hashlib.sha256(out_p.read_bytes())
    h.update(map_p.read_bytes())
    for line in report_p.read_text().splitlines():
        h.update(",".join(line.split(",")[:3]).encode() + b"\n")
    assert h.hexdigest() == digest


class _Captured(Exception):
    """Carries the SolverConfig that reconstruct hands to the solver."""


def _solver_config(tmp_path, monkeypatch, flags):
    _, rgb_p, phi_p = _synth(tmp_path, size=8)

    def capture(x, op, config):
        raise _Captured(config)

    monkeypatch.setattr("specrank.cli.unfold_solve", capture)
    with pytest.raises(_Captured) as info:
        run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), *flags,
             "--out", str(tmp_path / "o.hsc")])
    return info.value.args[0]


def test_reconstruct_unset_operator_flags_take_the_config_defaults(tmp_path, monkeypatch):
    config = _solver_config(tmp_path, monkeypatch, ["--rank", "8", "--kappa", "64"])
    assert config.lrsp == LrspConfig(r=8, kappa=64)


def test_reconstruct_exact_solves_without_an_operator_config(tmp_path, monkeypatch):
    config = _solver_config(tmp_path, monkeypatch, ["--exact"])
    assert config.lrsp is None


@pytest.mark.parametrize(
    ("flag", "field", "value"),
    [
        ("--probes", "probes", 5), ("--inner-steps", "inner_steps", 2),
        ("--tau0", "tau0", 2.0), ("--gamma", "gamma", 0.7), ("--tau-min", "tau_min", 0.2),
        ("--beta1", "beta1", 0.8), ("--c-beta", "c_beta", 0.3), ("--nu", "nu", 5.0),
        ("--mu", "mu", 0.3), ("--seed", "seed", 7),
    ],
)
def test_reconstruct_operator_flag_sets_its_field(tmp_path, monkeypatch, flag, field, value):
    config = _solver_config(
        tmp_path, monkeypatch, ["--rank", "8", "--kappa", "64", flag, str(value)]
    )
    want = {"r": 8, "kappa": 64, field: value}
    assert config.lrsp == LrspConfig(**want)


@pytest.mark.parametrize(
    ("flag", "value"),
    [("--rank", "8"), ("--kappa", "64"), ("--probes", "0"),
     ("--inner-steps", "2"), ("--tau0", "2.0"), ("--gamma", "0.7"), ("--tau-min", "0.2"),
     ("--beta1", "0.8"), ("--c-beta", "0.3"), ("--nu", "5.0"), ("--mu", "1.5"), ("--seed", "7")],
)
def test_reconstruct_exact_with_an_operator_flag_exits_2_before_reading(
    tmp_path, capsys, monkeypatch, flag, value
):
    _, rgb_p, phi_p = _synth(tmp_path, size=8)
    before = sorted(tmp_path.iterdir())

    def no_read(path):
        raise AssertionError("no input may be read")

    monkeypatch.setattr("specrank.cli.read_rgb", no_read)
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), "--exact", flag, value,
                "--out", str(tmp_path / "o.hsc")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: usage: --exact takes no operator flags, got {flag}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("mode", [["--rank", "8", "--kappa", "64"], ["--exact"]],
                         ids=["subspace", "exact"])
def test_reconstruct_threshold_flag_is_unrecognized(tmp_path, capsys, monkeypatch, mode):
    # the threshold is lam * eta_k at every stage; --lambda is its only knob
    _, rgb_p, phi_p = _synth(tmp_path, size=8)
    before = sorted(tmp_path.iterdir())

    def no_read(path):
        raise AssertionError("no input may be read")

    monkeypatch.setattr("specrank.cli.read_rgb", no_read)
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(phi_p), *mode,
                "--theta", "0.1", "--out", str(tmp_path / "o.hsc")])
    assert code == 2
    assert capsys.readouterr().err == "error: usage: unrecognized arguments: --theta 0.1\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("init", ["zeros", "adjoint", "pseudoinverse"])
def test_auto_step_size_of_a_vanishing_operator_exits_4(tmp_path, capsys, init):
    _, rgb_p, phi_p = _synth(tmp_path, bands=31, size=8)
    tiny_p = tmp_path / "tiny.csv"
    save_phi(tiny_p, ForwardOperator(1e-160 * load_phi(phi_p).phi))
    before = sorted(tmp_path.iterdir())
    code = run(["reconstruct", "--rgb", str(rgb_p), "--phi", str(tiny_p), "--exact",
                "--init", init, "--out", str(tmp_path / "o.hsc")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: numeric: no finite step size")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
