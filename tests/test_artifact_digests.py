"""The comparison step of scripts/artifact_digests.py: which artifacts count as
differing, the "N of M artifacts differ" line and the exit status."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_identical_trees_report_nothing(tmp_path, digests, capsys):
    files = {"a.csv": "x,y\n1,2\n", "mor/b.csv": "x\n3\n"}
    write(tmp_path / "ours", files)
    write(tmp_path / "theirs", files)
    assert digests.differences(tmp_path / "ours", tmp_path / "theirs") == (0, 2)
    assert capsys.readouterr().out == ""


def test_changed_missing_and_extra_artifacts_differ(tmp_path, digests, capsys):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write(ours, {"a.csv": "x\n1\n", "same.csv": "x\n5\n", "new.csv": "x\n0\n"})
    write(theirs, {"a.csv": "x\n3\n", "same.csv": "x\n5\n", "old.csv": "x\n0\n"})
    assert digests.differences(ours, theirs) == (3, 4)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "a.csv: max abs diff 2, max rel diff 0.667 over 1 numbers",
        f"new.csv: not in {theirs}",
        f"old.csv: only in {theirs}",
    ]


def test_gnuplot_reports_are_read_as_numbers(tmp_path, digests, capsys):
    # The "report" command's .dat output: a "#" header, then whitespace-
    # separated columns, every one of them numeric.
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write(ours, {"hybrid.dat": "# iteration residual lambda\n1 0.5 2.0\n2 0.25 4.0\n"})
    write(theirs, {"hybrid.dat": "# iteration residual lambda\n1 0.5 2.0\n2 0.2 5.0\n"})
    assert digests.numbers(ours / "hybrid.dat").tolist() == [[1.0, 0.5, 2.0], [2.0, 0.25, 4.0]]
    assert digests.differences(ours, theirs) == (1, 1)
    assert capsys.readouterr().out.splitlines() == [
        "hybrid.dat: max abs diff 1, max rel diff 0.2 over 6 numbers"
    ]


def test_exit_status_is_the_comparison(tmp_path, digests, capsys, monkeypatch):
    # With the CLI runs stubbed out, the artifacts are the inputs the script
    # writes itself, which is enough to drive the --against path end to end.
    monkeypatch.setattr(digests, "run", lambda args, env: None)
    monkeypatch.setattr(sys, "path", list(sys.path))  # --against prepends src
    kept = tmp_path / "kept"
    monkeypatch.setattr(sys, "argv", ["artifact_digests.py", "--keep", str(kept)])
    digests.main()
    capsys.readouterr()

    monkeypatch.setattr(sys, "argv", ["artifact_digests.py", "--against", str(kept)])
    digests.main()
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 4 artifacts differ"

    (kept / "defaults.cfg").write_text("max-iter = 1\n")
    with pytest.raises(SystemExit) as exc:
        digests.main()
    assert exc.value.code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 4 artifacts differ"
