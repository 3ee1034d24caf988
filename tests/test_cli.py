import contextlib
import functools
import inspect
import io
import struct
import subprocess
import sys

import numpy as np
import pytest

from cpcomplete import cli, mor
from cpcomplete.cli import main
from cpcomplete.completion import CompletionConfig, make_random_mask
from cpcomplete.cp_model import CPModel, reconstruct
from cpcomplete.fileio import load_mask, load_matrix, load_model, load_tensor, save_ppm, save_tensor


def run_cli(*args):
    """Run the command in this process; argparse's SystemExit becomes the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(arg) for arg in args])
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def small_tensor(seed=0, dims=(8, 9, 3), r=3):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(d, r)) for d in dims]
    mats = [m / np.linalg.norm(m, axis=0) for m in mats]
    return reconstruct(CPModel(*mats, rng.uniform(1, 2, r)))


class Captured(Exception):
    pass


def no_solve(*args, **kwargs):
    raise AssertionError("the solve ran before the arguments were checked")


def bare_call(monkeypatch, name, argv):
    """The arguments, defaults applied, with which ``main(argv)`` calls the
    library function the CLI imports as ``name``."""
    func = getattr(cli, name)
    calls = []

    @functools.wraps(func)  # the parser reads its defaults through the stand-in
    def capture(*args, **kwargs):
        calls.append(inspect.signature(func).bind(*args, **kwargs))
        raise Captured

    monkeypatch.setattr(cli, name, capture)
    with pytest.raises(Captured):
        main(argv)
    (bound,) = calls
    bound.apply_defaults()
    return bound.arguments


def signature_defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


@pytest.fixture
def workspace(tmp_path):
    t = small_tensor()
    tpath = tmp_path / "data.tns3"
    save_tensor(t, tpath)
    mpath = tmp_path / "obs.msk3"
    res = run_cli("mask", "--dims", "8,9,3", "--fraction", "0.7", "--seed", "1", "--out", mpath)
    assert res.returncode == 0, res.stderr
    return tmp_path, tpath, mpath


class TestMaskCommand:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.msk3"
        b = tmp_path / "b.msk3"
        for out in (a, b):
            res = run_cli("mask", "--dims", "10,10,10", "--fraction", "0.3", "--seed", "1", "--out", out)
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_fraction_count(self, tmp_path):
        out = tmp_path / "m.msk3"
        run_cli("mask", "--dims", "10,10,10", "--fraction", "0.7", "--seed", "2", "--out", out)
        assert load_mask(out).count == 700

    def test_rect_mask(self, tmp_path):
        out = tmp_path / "m.msk3"
        res = run_cli("mask", "--dims", "6,7,3", "--rect", "1,2,3,4", "--out", out)
        assert res.returncode == 0, res.stderr
        mask = load_mask(out)
        # columns 1..3 of rows 2..4 hidden in every channel
        assert mask.count == 6 * 7 * 3 - 3 * 3 * 3
        assert not mask.where[2, 1, 0]
        assert mask.where[0, 0, 0]

    def test_like_dimensions(self, tmp_path):
        tpath = tmp_path / "t.tns3"
        save_tensor(np.zeros((4, 5, 3)), tpath)
        out = tmp_path / "m.msk3"
        res = run_cli("mask", "--like", tpath, "--fraction", "0.5", "--seed", "0", "--out", out)
        assert res.returncode == 0, res.stderr
        assert load_mask(out).dims == (4, 5, 3)

    def test_missing_dims_is_usage_error(self, tmp_path):
        res = run_cli("mask", "--fraction", "0.5", "--out", tmp_path / "m.msk3")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "args, config, named",
        [
            (["--fraction", "0.5", "--seed", "3"], None, ["--fraction", "--seed"]),
            (["--fraction", "0.3"], None, ["--fraction"]),
            ([], "seed = 3\n", ["--seed"]),
        ],
        ids=["flags", "default-valued-flag", "config"],
    )
    def test_rect_with_sampling_settings_is_usage_error(self, tmp_path, args, config, named):
        out = tmp_path / "m.msk3"
        if config is not None:
            (tmp_path / "m.cfg").write_text(config)
            args = [*args, "--config", tmp_path / "m.cfg"]
        res = run_cli("mask", "--dims", "6,7,3", "--rect", "1,2,3,4", *args, "--out", out)
        assert res.returncode == 2
        assert all(option in res.stderr for option in ["--rect", *named]), res.stderr
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "m.msk3"
        res = run_cli("mask", "--dims", "6,7,3", "--seed", "-1", "--out", out)
        assert res.returncode == 2
        assert res.stderr == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--dims", "6,7"], "--dims needs 3 comma-separated integers, got '6,7'"),
            (["--dims", "6,7,3,1"], "--dims needs 3 comma-separated integers, got '6,7,3,1'"),
            (["--dims", "6,7,3", "--rect", "1,2,3"], "--rect needs 4 comma-separated integers, got '1,2,3'"),
            (["--dims", "6,7,3", "--rect", "1,2,7,4"], "rectangle 1,2,7,4 out of bounds for dims (6, 7, 3)"),
            (["--dims", "6,7,3", "--rect", "1,2,3,6"], "rectangle 1,2,3,6 out of bounds for dims (6, 7, 3)"),
            (["--dims", "6,7,3", "--rect", "3,2,1,4"], "rectangle 3,2,1,4 out of bounds for dims (6, 7, 3)"),
            (["--dims", "6,7,3", "--fraction", "1.5"], "fraction must be a real number in (0, 1], got 1.5"),
        ],
        ids=["dims-two", "dims-four", "rect-three", "rect-past-x", "rect-past-y", "rect-reversed", "fraction"],
    )
    def test_bad_dims_rect_or_fraction_is_usage_error(self, tmp_path, args, message):
        out = tmp_path / "m.msk3"
        res = run_cli("mask", *args, "--out", out)
        assert res.returncode == 2
        assert res.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_like_with_dims_is_usage_error(self, tmp_path):
        tpath = tmp_path / "t.tns3"
        save_tensor(np.zeros((8, 9, 3)), tpath)
        out = tmp_path / "m.msk3"
        res = run_cli("mask", "--dims", "6,7,3", "--like", tpath, "--out", out)
        assert res.returncode == 2
        assert "--like" in res.stderr and "--dims" in res.stderr
        assert not out.exists()

    def test_defaults_match_explicit_fraction_and_seed(self, tmp_path):
        assert main(["mask", "--dims", "10,10,10", "--out", str(tmp_path / "bare.msk3")]) == 0
        explicit = ["--fraction", "0.3", "--seed", "0", "--out", str(tmp_path / "explicit.msk3")]
        assert main(["mask", "--dims", "10,10,10", *explicit]) == 0
        assert (tmp_path / "bare.msk3").read_bytes() == (tmp_path / "explicit.msk3").read_bytes()

    def test_bare_command_uses_the_signature_defaults(self, tmp_path, monkeypatch):
        argv = ["mask", "--dims", "4,5,3", "--out", str(tmp_path / "m.msk3")]
        arguments = bare_call(monkeypatch, "make_random_mask", argv)
        assert arguments == {**signature_defaults(make_random_mask), "dims": (4, 5, 3)}

    def test_huge_p3_header_is_data_error(self, tmp_path):
        huge = tmp_path / "huge.ppm"
        huge.write_bytes(b"P3 100000000000 100000000000 255\n1 2 3\n")
        res = run_cli("mask", "--like", huge, "--out", tmp_path / "m.msk3")
        assert res.returncode == 3, res.stderr
        assert "truncated payload" in res.stderr


class TestCompleteCommand:
    def test_runs_and_writes_artifacts(self, workspace):
        tmp, tpath, mpath = workspace
        res = run_cli(
            "complete", "--input", tpath, "--mask", mpath,
            "--rank", "5", "--max-iter", "30", "--tol", "1e-3", "--seed", "3",
            "--out", tmp / "model.cpm1", "--trace", tmp / "trace.csv",
            "--recon", tmp / "recon.tns3",
        )
        assert res.returncode == 0, res.stderr
        model = load_model(tmp / "model.cpm1")
        assert model.dims == (8, 9, 3)
        recon = load_tensor(tmp / "recon.tns3")
        t = load_tensor(tpath)
        mask = load_mask(mpath)
        assert np.array_equal(recon[mask.where], t[mask.where])

    def test_byte_identical_across_runs(self, workspace):
        tmp, tpath, mpath = workspace
        outs = []
        for tag in ("one", "two"):
            res = run_cli(
                "complete", "--input", tpath, "--mask", mpath,
                "--rank", "5", "--max-iter", "25", "--seed", "7",
                "--out", tmp / f"{tag}.cpm1", "--trace", tmp / f"{tag}.csv",
            )
            assert res.returncode == 0, res.stderr
            outs.append((
                (tmp / f"{tag}.cpm1").read_bytes(),
                (tmp / f"{tag}.csv").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_fixed_mode_parses(self, workspace):
        tmp, tpath, mpath = workspace
        res = run_cli(
            "complete", "--input", tpath, "--mask", mpath,
            "--rank", "4", "--mode", "fixed:35", "--max-iter", "5",
            "--out", tmp / "m.cpm1",
        )
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_fixed_lambda_is_usage_error(self, workspace, lam):
        tmp, tpath, mpath = workspace
        res = run_cli(
            "complete", "--input", tpath, "--mask", mpath,
            "--rank", "4", "--mode", f"fixed:{lam}", "--out", tmp / "m.cpm1",
        )
        assert res.returncode == 2
        assert f"got {float(lam)}" in res.stderr
        assert not (tmp / "m.cpm1").exists()

    def test_bad_mode_is_usage_error(self, workspace):
        tmp, tpath, mpath = workspace
        res = run_cli("complete", "--input", tpath, "--mask", mpath, "--mode", "banana")
        assert res.returncode == 2

    def test_bad_magic_is_data_error(self, workspace):
        tmp, tpath, mpath = workspace
        bogus = tmp / "bogus.bin"
        bogus.write_bytes(b"JUNKJUNKJUNK")
        # through the ``python -m cpcomplete`` entry point, which must pass the code on
        res = subprocess.run(
            [sys.executable, "-m", "cpcomplete", "complete", "--input", str(bogus), "--mask", str(mpath)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 3
        assert "unrecognized input format" in res.stderr

    @pytest.mark.parametrize("which", ["input", "mask"])
    def test_bytes_past_the_payload_is_data_error(self, workspace, which):
        tmp, tpath, mpath = workspace
        path = {"input": tpath, "mask": mpath}[which]
        path.write_bytes(path.read_bytes() + b"\x00" * 24)
        res = run_cli("complete", "--input", tpath, "--mask", mpath, "--out", tmp / "m.cpm1")
        assert res.returncode == 3
        assert "bytes past the payload" in res.stderr
        assert not (tmp / "m.cpm1").exists()

    def test_zero_dimension_input_is_data_error(self, workspace):
        tmp, _, mpath = workspace
        empty = tmp / "empty.tns3"
        empty.write_bytes(b"TNS3" + struct.pack("<3Q", 0, 4, 5))
        res = run_cli("complete", "--input", empty, "--mask", mpath, "--out", tmp / "m.cpm1")
        assert res.returncode == 3
        assert "all dimensions must be >= 1" in res.stderr
        assert not (tmp / "m.cpm1").exists()

    @pytest.mark.parametrize("mode", ["hybrid", "fixed:0.5"])
    def test_data_too_large_to_square_is_data_error(self, workspace, mode):
        tmp, tpath, mpath = workspace
        save_tensor(1e160 * small_tensor(), tpath)
        with np.errstate(over="ignore"):
            res = run_cli(
                "complete", "--input", tpath, "--mask", mpath, "--rank", "3", "--mode", mode,
                "--max-iter", "3", "--out", tmp / "m.cpm1",
            )
        assert res.returncode == 3
        assert "observed entries overflows" in res.stderr
        assert not (tmp / "m.cpm1").exists()

    def test_data_whose_squares_overflow_in_the_hybrid_solve_is_data_error(self, workspace):
        # The observed entries' squared norm is finite; the lambda selection's
        # R0 times the imputation's squared norm is not.
        tmp, tpath, mpath = workspace
        t = small_tensor()
        save_tensor(1.2e154 / np.linalg.norm(t) * t, tpath)
        res = run_cli(
            "complete", "--input", tpath, "--mask", mpath, "--rank", "3", "--max-iter", "3",
            "--out", tmp / "m.cpm1",
        )
        assert res.returncode == 3
        assert "squared norm of the imputed data overflows" in res.stderr
        assert not (tmp / "m.cpm1").exists()

    def test_pixmap_recon_of_a_non_rgb_tensor_fails_before_the_solve(self, tmp_path):
        save_tensor(small_tensor(dims=(4, 5, 6)), tmp_path / "t.tns3")
        res = run_cli("mask", "--dims", "4,5,6", "--out", tmp_path / "m.msk3")
        assert res.returncode == 0, res.stderr
        outputs = {"out": tmp_path / "m.cpm1", "trace": tmp_path / "t.csv", "recon": tmp_path / "r.ppm"}
        res = run_cli(
            "complete", "--input", tmp_path / "t.tns3", "--mask", tmp_path / "m.msk3", "--rank", "3",
            "--max-iter", "3", *(arg for name, path in outputs.items() for arg in (f"--{name}", path)),
        )
        assert res.returncode == 2
        assert not any(path.exists() for path in outputs.values())
        assert "3 channels" in res.stderr and "has 6" in res.stderr

    def test_unknown_flag_exits_two(self, workspace):
        tmp, tpath, mpath = workspace
        res = run_cli("complete", "--input", tpath, "--mask", mpath, "--frobnicate")
        assert res.returncode == 2

    def test_ppm_input(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(6, 8, 3)) / 255.0
        ipath = tmp_path / "img.ppm"
        save_ppm(img, ipath)
        res = run_cli("mask", "--like", ipath, "--fraction", "0.8", "--seed", "2", "--out", tmp_path / "m.msk3")
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "complete", "--input", ipath, "--mask", tmp_path / "m.msk3",
            "--rank", "4", "--max-iter", "10", "--recon", tmp_path / "rec.ppm",
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "rec.ppm").read_bytes()[:2] == b"P6"

    def test_config_file_precedence(self, workspace):
        tmp, tpath, mpath = workspace
        cfg = tmp / "run.cfg"
        cfg.write_text("max-iter = 3\nrank = 4\n")
        res = run_cli(
            "complete", "--input", tpath, "--mask", mpath,
            "--config", cfg, "--rank", "5",
            "--out", tmp / "m.cpm1", "--trace", tmp / "t.csv",
        )
        assert res.returncode == 0, res.stderr
        # flag wins for rank, config wins for max-iter
        assert load_model(tmp / "m.cpm1").A.shape[1] <= 5
        with open(tmp / "t.csv") as fh:
            rows = fh.read().strip().splitlines()
        assert len(rows) - 1 <= 3

    def test_config_comments_blank_lines_and_timings(self, workspace):
        tmp, tpath, mpath = workspace
        cfg = tmp / "run.cfg"
        cfg.write_text("# a comment line\n\nmax-iter = 2  # trailing comment\ntimings = yes\n")
        code = main([
            "complete", "--input", str(tpath), "--mask", str(mpath), "--rank", "3",
            "--config", str(cfg), "--trace", str(tmp / "t.csv"),
        ])
        assert code == 0
        rows = (tmp / "t.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert any(float(row.split(",")[3]) > 0.0 for row in rows[1:])

    def test_config_line_without_equals_is_data_error(self, workspace, capsys):
        tmp, tpath, mpath = workspace
        cfg = tmp / "run.cfg"
        cfg.write_text("rank = 3\nmax-iter 2\n")
        code = main(["complete", "--input", str(tpath), "--mask", str(mpath), "--config", str(cfg)])
        assert code == 3
        assert "run.cfg:2: expected key=value" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, workspace, capsys):
        tmp, tpath, mpath = workspace
        code = main(["complete", "--input", str(tpath), "--mask", str(mpath), "--config", str(tmp / "missing.cfg")])
        assert code == 2
        assert str(tmp / "missing.cfg") in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, workspace, monkeypatch, capsys):
        tmp, tpath, mpath = workspace
        monkeypatch.setattr(cli, "complete", no_solve)
        cfg = tmp / "run.cfg"
        cfg.write_text("max-iter = 2\nrnak = 2\n")
        code = main([
            "complete", "--input", str(tpath), "--mask", str(mpath), "--rank", "3", "--config", str(cfg),
        ])
        assert code == 2
        assert "run.cfg:2: unknown key 'rnak'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_path", ["{tmp}/missing/x.out", ""], ids=["missing-dir", "empty"])
    @pytest.mark.parametrize("bad", ["out", "trace", "recon"])
    def test_bad_output_path_fails_before_the_solve(self, workspace, monkeypatch, capsys, bad, bad_path):
        tmp, tpath, mpath = workspace
        monkeypatch.setattr(cli, "complete", no_solve)
        outputs = {"out": tmp / "m.cpm1", "trace": tmp / "t.csv", "recon": tmp / "r.tns3"}
        argv = ["complete", "--input", str(tpath), "--mask", str(mpath)]
        for name, path in outputs.items():
            argv += [f"--{name}", bad_path.format(tmp=tmp) if name == bad else str(path)]
        assert main(argv) == 2
        assert f"--{bad}" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs.values())

    @pytest.mark.parametrize(
        "flags, config, expected",
        [
            ([], None, CompletionConfig()),
            (
                ["--rank", "7", "--mode", "fixed:2", "--max-iter", "9", "--tol", "0.5", "--seed", "4"], None,
                CompletionConfig(R0=7, mode="fixed", lam=2.0, m_max=9, eps_tol=0.5, seed=4),
            ),
            (
                ["--rank", "6"], "rank = 7\nmode = fixed:2\nmax-iter = 9\ntol = 0.5\nseed = 4\n",
                CompletionConfig(R0=6, mode="fixed", lam=2.0, m_max=9, eps_tol=0.5, seed=4),
            ),
            (["--mode", "hybrid"], "mode = fixed:2\n", CompletionConfig()),
        ],
        ids=["bare", "flags", "config", "flag-mode-over-config"],
    )
    def test_settings_reach_the_completion_config(self, workspace, monkeypatch, flags, config, expected):
        tmp, tpath, mpath = workspace
        if config is not None:
            (tmp / "run.cfg").write_text(config)
            flags = ["--config", str(tmp / "run.cfg"), *flags]
        seen = []

        def capture(t, mask, cfg):
            seen.append(cfg)
            raise Captured

        monkeypatch.setattr(cli, "complete", capture)
        with pytest.raises(Captured):
            main(["complete", "--input", str(tpath), "--mask", str(mpath), *flags])
        assert seen == [expected]

    @pytest.mark.parametrize("word", ["off", "no", "0", "false", "False"])
    def test_false_timings_word_writes_zero_wall_times(self, workspace, word):
        tmp, tpath, mpath = workspace
        res = run_cli(
            "complete", "--input", tpath, "--mask", mpath, "--rank", "3", "--max-iter", "2",
            "--timings", word, "--trace", tmp / "t.csv",
        )
        assert res.returncode == 0, res.stderr
        rows = (tmp / "t.csv").read_text().strip().splitlines()
        assert [row.split(",")[3] for row in rows] == ["wall_ms", "0.0", "0.0"]

    def test_non_boolean_timings_is_usage_error(self, workspace, monkeypatch):
        tmp, tpath, mpath = workspace
        monkeypatch.setattr(cli, "complete", no_solve)
        res = run_cli("complete", "--input", tpath, "--mask", mpath, "--timings", "maybe", "--trace", tmp / "t.csv")
        assert res.returncode == 2
        assert "argument --timings: not a boolean: 'maybe'" in res.stderr
        assert not (tmp / "t.csv").exists()

    def test_bare_timings_flag_records_wall_times(self, workspace):
        tmp, tpath, mpath = workspace
        code = main([
            "complete", "--input", str(tpath), "--mask", str(mpath), "--rank", "3", "--max-iter", "2",
            "--timings", "--trace", str(tmp / "t.csv"),
        ])
        assert code == 0
        rows = (tmp / "t.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows] == ["iteration", "1", "2"]
        assert all(float(row.split(",")[3]) > 0.0 for row in rows[1:])


@pytest.mark.parametrize(
    "command, owner, names",
    [
        ("complete", CompletionConfig, ["R0", "mode", "m_max", "eps_tol", "seed"]),
        ("mor-demo", mor.run_mor_demo, list(inspect.signature(mor.run_mor_demo).parameters)),
        ("mask", make_random_mask, ["fraction", "seed"]),
        ("pod", mor.pod_basis, ["r"]),
    ],
)
def test_help_shows_the_library_defaults(capsys, command, owner, names):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    lines = capsys.readouterr().out.splitlines()
    params = inspect.signature(owner).parameters
    for name in names:
        # each setting's metavar is the name of the library parameter it feeds
        shown = [line for line in lines if f" {name.upper()} " in line]
        assert len(shown) == 1 and shown[0].endswith(f"(default {params[name].default})"), name


class TestMorDemoCommand:
    def test_bare_command_uses_the_signature_defaults(self, tmp_path, monkeypatch):
        arguments = bare_call(monkeypatch, "run_mor_demo", ["mor-demo", "--outdir", str(tmp_path)])
        assert arguments == signature_defaults(mor.run_mor_demo)

    def test_tiny_pipeline_writes_reports(self, tmp_path):
        res = run_cli(
            "mor-demo", "--nx", "12", "--grid", "2", "--rank0", "4",
            "--eps", "1e-2", "--tests", "2", "--pod-rank", "3",
            "--max-iter", "30", "--outdir", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        cp_basis = load_matrix(tmp_path / "cp_basis.mat1")
        pod_basis = load_matrix(tmp_path / "pod_basis.mat1")
        assert cp_basis.shape[0] == 144 and pod_basis.shape == (144, 3)
        lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "test,mu1,mu2,cp_error,pod_error"
        assert len(lines) == 3
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == k
            assert all(np.isfinite(float(c)) for c in cells[1:]), line
        comp = (tmp_path / "compression.csv").read_text().strip().splitlines()
        assert comp[0] == "scheme,rank,ratio"
        assert [line.split(",")[0] for line in comp[1:]] == ["cp", "pod"]
        for line in comp[1:]:
            _, rank, ratio = line.split(",")
            assert int(rank) >= 1 and float(ratio) > 0, line

    @pytest.mark.parametrize(
        "args, shown",
        [
            (["--eps", "2"], "2.0"),
            (["--grid", "3", "--pod-rank", "20"], "rank 20"),
            (["--tests", "0"], "got 0"),
            (["--outdir", "{tmp}/missing"], "missing"),
            (["--nx", "2"], "nx must be an integer >= 3, got 2"),
        ],
        ids=["eps", "pod-rank", "tests", "outdir", "nx"],
    )
    def test_bad_value_fails_before_any_solve(self, tmp_path, monkeypatch, capsys, args, shown):
        def no_solve(*args):
            raise AssertionError("assemble_snapshots ran before the arguments were checked")

        monkeypatch.setattr(mor, "assemble_snapshots", no_solve)
        base = ["mor-demo", "--nx", "12", "--grid", "2", "--tests", "2", "--pod-rank", "3", "--outdir", str(tmp_path)]
        assert main(base + [a.format(tmp=tmp_path) for a in args]) == 2
        assert shown in capsys.readouterr().err


class TestPodCommand:
    def test_writes_orthonormal_basis(self, tmp_path):
        rng = np.random.default_rng(6)
        save_tensor(rng.normal(size=(6, 6, 5)), tmp_path / "s.tns3")
        res = run_cli("pod", "--input", tmp_path / "s.tns3", "--rank", "3", "--out", tmp_path / "b.mat1")
        assert res.returncode == 0, res.stderr
        phi = load_matrix(tmp_path / "b.mat1")
        assert phi.shape == (36, 3)
        assert np.abs(phi.T @ phi - np.eye(3)).max() <= 1e-10

    def test_bare_command_uses_the_signature_defaults(self, tmp_path, monkeypatch):
        t = small_tensor()
        save_tensor(t, tmp_path / "s.tns3")
        argv = ["pod", "--input", str(tmp_path / "s.tns3"), "--out", str(tmp_path / "b.mat1")]
        arguments = bare_call(monkeypatch, "pod_basis", argv)
        defaults = signature_defaults(mor.pod_basis)
        assert np.array_equal(arguments.pop("a"), t) and defaults.pop("a") is inspect.Parameter.empty
        assert arguments == defaults

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_snapshots_are_data_error(self, tmp_path, bad):
        snaps = np.ones((4, 4, 3))
        snaps[2, 1, 1] = bad
        save_tensor(snaps, tmp_path / "s.tns3")
        res = run_cli("pod", "--input", tmp_path / "s.tns3", "--rank", "2", "--out", tmp_path / "b.mat1")
        assert res.returncode == 3, res.stderr
        assert "input tensor contains non-finite values" in res.stderr
        assert not (tmp_path / "b.mat1").exists()

    def test_overflowing_header_is_data_error(self, tmp_path):
        bogus = tmp_path / "huge.tns3"
        bogus.write_bytes(b"TNS3" + struct.pack("<3Q", 2**40, 2**40, 2**40) + b"\x00" * 8)
        res = run_cli("pod", "--input", bogus, "--out", tmp_path / "b.mat1")
        assert res.returncode == 3, res.stderr


class TestReportCommand:
    def test_renders_dat(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("a,b\n1,2\n3,4\n")
        res = run_cli("report", "--input", src, "--out", tmp_path / "x.dat")
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "x.dat").read_text() == "# a b\n1 2\n3 4\n"

    def test_missing_file_is_data_error(self, tmp_path):
        res = run_cli("report", "--input", tmp_path / "nope.csv", "--out", tmp_path / "x.dat")
        assert res.returncode == 2

    @pytest.mark.parametrize("text", ["", "\n\n", "a,b\n1,2\n3\n"], ids=["empty", "blank", "ragged"])
    def test_malformed_csv_is_data_error(self, tmp_path, text):
        src = tmp_path / "x.csv"
        src.write_text(text)
        res = run_cli("report", "--input", src, "--out", tmp_path / "x.dat")
        assert res.returncode == 3
        assert not (tmp_path / "x.dat").exists()
