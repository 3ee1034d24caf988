"""scripts/bench_pairs.py with the benchmark runner and the git export stubbed:
run order, the per-pair lines, medians, quartiles, the gain and worse verdicts
and the change set against each metric's bound, over one workload or several."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture
def pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(iter_cost, setup_s=0.02, peak_rss_mb=80.0, failed=0):
    values = {"iter_cost": iter_cost, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    return {"correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()}}


def stub_runner(module, monkeypatch, costs):
    """Serve ``costs[side]`` in order, recording which side ran when."""
    calls = []
    sides = {}

    def fake_run(tree, workload, seed, seconds):
        side = sides[Path(tree)]
        calls.append((side, workload, seed, seconds))
        return costs[side].pop(0)

    def fake_export(rev, dest):
        assert rev == "HEAD~1"
        sides[Path(dest)] = "base"
        copy_benchmark(dest)

    def fake_copy(dest):
        sides[Path(dest)] = "this"
        copy_benchmark(dest)

    monkeypatch.setattr(module, "run_bench", fake_run)
    monkeypatch.setattr(module, "export_tree", fake_export)
    monkeypatch.setattr(module, "copy_checkout", fake_copy)
    return calls


def copy_benchmark(dest):
    Path(dest).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", Path(dest) / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", Path(dest) / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=repo, capture_output=True, check=True)


def test_both_sides_run_from_sibling_copies_with_uncommitted_edits(pairs_module, monkeypatch, tmp_path, capsys):
    # A small repository stands in for the checkout.  After the commit, one
    # tracked file is edited and one deleted, an untracked file is added
    # and an ignored one left behind.
    repo = tmp_path / "checkout"
    (repo / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", repo / "BENCHMARK.json")
    (repo / "bench" / "run.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    (repo / ".gitignore").write_text("*.log\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "one")
    (repo / "bench" / "run.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "sub").mkdir()
    (repo / "sub" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")

    seen = []

    def fake_run(tree, workload, seed, seconds):
        files = sorted(str(p.relative_to(tree)) for p in Path(tree).rglob("*") if p.is_file())
        seen.append((Path(tree), files, (Path(tree) / "bench" / "run.py").read_text()))
        return result(1.0)

    monkeypatch.setattr(pairs_module, "ROOT", repo)
    monkeypatch.setattr(pairs_module, "run_bench", fake_run)
    assert pairs_module.main(["HEAD", "--workload", "mor_demo", "--pairs", "1"]) == 0
    (base, base_files, base_run), (this, this_files, this_run) = seen
    assert base.parent == this.parent and base.parent != repo.parent
    assert len(str(base)) == len(str(this))
    assert base_files == [".gitignore", "BENCHMARK.json", "bench/run.py", "gone.py"]
    assert this_files == [".gitignore", "BENCHMARK.json", "bench/run.py", "sub/new.py"]
    assert (base_run, this_run) == ("committed\n", "edited\n")
    out = capsys.readouterr().out
    assert "note: bench/ differs between the two trees" in out
    assert f"this = {repo} with its uncommitted edits" in out


def test_alternates_order_and_reports_a_supported_gain(pairs_module, monkeypatch, capsys):
    base = [1.10, 1.08, 1.09, 1.12, 1.07, 1.11, 1.09, 1.10, 1.08, 1.09]
    this = [0.96, 0.95, 0.97, 0.94, 0.98, 0.96, 1.20, 0.95, 0.97, 0.96]
    calls = stub_runner(pairs_module, monkeypatch, {
        "base": [result(c) for c in base], "this": [result(c) for c in this],
    })
    assert pairs_module.main(["HEAD~1", "--workload", "image_fixed", "--pairs", "10", "--seed", "2718"]) == 0
    out = capsys.readouterr().out

    assert [side for side, *_ in calls[:4]] == ["base", "this", "this", "base"]
    assert {c[1:] for c in calls} == {("image_fixed", 2718, 15.0)}
    assert "pair 1 (base first), base/this: iter_cost 1.1/0.96" in out
    assert "pair 2 (this first), base/this: iter_cost 1.08/0.95" in out
    assert "note: bench/" not in out
    assert "base: 0 of 50 tasks failed" in out
    # inclusive quartiles of the sorted base: 1.08 + 0.25 * 0.01 and 1.10
    assert "iter_cost: base median 1.09 (quartiles 1.0825-1.1), this median 0.96" in out
    assert "iter_cost: this wins 9/10 pairs, medians differ by 0.13 against a base quartile spread of 0.0175: gain supported" in out
    # identical values: no pair won, no gain
    assert "setup_s: this wins 0/10 pairs" in out
    assert out.count("gain not supported") == 2
    assert "iter_cost: base wins 1/10 pairs: this is not worse" in out
    assert out.count("this is not worse") == 3
    # the bounds come from BENCHMARK.json
    assert "iter_cost: median change -11.9% against a bound of 20%: within the bound" in out
    assert "setup_s: median change +0.0% against a bound of 25%: within the bound" in out
    assert "peak_rss_mb: median change +0.0% against a bound of 10%: within the bound" in out


def test_eight_wins_or_a_narrow_gap_is_no_gain(pairs_module):
    lines = pairs_module.summarize("iter_cost", "lower", [1.0] * 8 + [0.5, 0.5], [0.9] * 10)
    assert lines[1].startswith("iter_cost: this wins 8/10 pairs") and lines[1].endswith("gain not supported")
    # 10/10 wins, but the medians differ by less than the base quartile spread
    base = [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]
    lines = pairs_module.summarize("iter_cost", "lower", base, [b - 0.01 for b in base])
    assert "wins 10/10" in lines[1] and lines[1].endswith("gain not supported")
    # "higher is better" flips the sign
    lines = pairs_module.summarize("ops", "higher", [1.0] * 10, [2.0] * 10)
    assert "wins 10/10" in lines[1] and lines[1].endswith("gain supported")


def test_worse_mirrors_the_gain_rule(pairs_module):
    # base wins 10/10 by a margin wider than its quartile spread: worse
    lines = pairs_module.summarize("iter_cost", "lower", [0.9] * 10, [1.0] * 10)
    assert lines[2] == "iter_cost: base wins 10/10 pairs: this is worse"
    assert lines[1].endswith("gain not supported")
    # 8 of 10 is not enough
    lines = pairs_module.summarize("iter_cost", "lower", [0.9] * 8 + [1.5, 1.5], [1.0] * 10)
    assert lines[2] == "iter_cost: base wins 8/10 pairs: this is not worse"
    # base wins 10/10, but by less than its own quartile spread
    base = [1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2]
    lines = pairs_module.summarize("iter_cost", "lower", base, [b + 0.01 for b in base])
    assert lines[2] == "iter_cost: base wins 10/10 pairs: this is not worse"
    # "higher is better" flips the sign; a tie is no loss
    lines = pairs_module.summarize("ops", "higher", [2.0] * 10, [1.0] * 10)
    assert lines[2] == "ops: base wins 10/10 pairs: this is worse"
    lines = pairs_module.summarize("ops", "higher", [2.0] * 10, [2.0] * 10)
    assert lines[2] == "ops: base wins 0/10 pairs: this is not worse"


def test_change_is_set_against_the_bound(pairs_module):
    verdict = pairs_module.bound_verdict
    assert verdict("iter_cost", "lower", 0.2, [1.0] * 10, [1.3] * 10) == (
        "iter_cost: median change +30.0% against a bound of 20%: worse by more than the bound"
    )
    assert verdict("iter_cost", "lower", 0.2, [1.0] * 10, [1.15] * 10).endswith(": within the bound")
    # "higher is better" flips the sign
    assert verdict("ops", "higher", 0.2, [2.0] * 10, [1.5] * 10) == (
        "ops: median change -25.0% against a bound of 20%: worse by more than the bound"
    )
    assert verdict("ops", "higher", 0.2, [2.0] * 10, [3.0] * 10).endswith(": within the bound")
    assert verdict("ops", "higher", 0.2, [0.0] * 10, [1.0] * 10) == (
        "ops: base median 0, so no relative change to set against the bound of 20%"
    )


def test_a_base_spread_wider_than_the_bound_leaves_the_change_unresolved(pairs_module):
    verdict = pairs_module.bound_verdict
    # base quartiles 1.0 and 1.5 around a median of 1.25: a 40% spread against a 25% bound
    base = [1.0, 1.5] * 5
    assert verdict("setup_s", "lower", 0.25, base, [1.3] * 10) == (
        "setup_s: median change +4.0% against a bound of 25%: unresolved, the base quartile spread is 40.0% of its median"
    )
    assert "unresolved" in verdict("setup_s", "lower", 0.25, base, [2.0] * 10)
    # one run of this side that does not beat every base run keeps it unresolved
    assert "unresolved" in verdict("setup_s", "lower", 0.25, base, [0.9] * 9 + [1.0])
    # unless every run of this side beats every base run
    assert verdict("setup_s", "lower", 0.25, base, [0.9] * 10) == (
        "setup_s: median change -28.0% against a bound of 25%: within the bound"
    )
    assert verdict("setup_s", "lower", 0.5, base, [1.3] * 10).endswith(": within the bound")


def test_single_pair_and_changed_bench_noted(pairs_module, monkeypatch, capsys):
    stub_runner(pairs_module, monkeypatch, {"base": [result(1.0, failed=1)], "this": [result(0.9)]})
    real_export = pairs_module.export_tree

    def export_and_edit(rev, dest):
        real_export(rev, dest)
        (Path(dest) / "bench" / "extra.py").write_text("")

    monkeypatch.setattr(pairs_module, "export_tree", export_and_edit)
    assert pairs_module.main(["HEAD~1", "--workload", "mor_demo", "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "note: bench/ differs between the two trees" in out
    assert "base: 1 of 5 tasks failed" in out
    assert "iter_cost: base median 1 (quartiles 1-1)" in out


def test_pairs_must_be_positive(pairs_module):
    with pytest.raises(SystemExit):
        pairs_module.main(["HEAD~1", "--workload", "mor_demo", "--pairs", "0"])


def test_without_a_workload_every_benchmark_workload_runs_on_one_export(pairs_module, monkeypatch, capsys):
    names = [w["name"] for w in pairs_module.benchmark_spec(ROOT)["workloads"]]
    assert len(names) >= 2
    calls = stub_runner(pairs_module, monkeypatch, {
        "base": [result(1.0) for _ in names] * 2, "this": [result(0.9) for _ in names] * 2,
    })
    exports = []
    real_export, real_copy = pairs_module.export_tree, pairs_module.copy_checkout

    def export(rev, dest):
        exports.append("base")
        real_export(rev, dest)

    def copy(dest):
        exports.append("this")
        real_copy(dest)

    monkeypatch.setattr(pairs_module, "export_tree", export)
    monkeypatch.setattr(pairs_module, "copy_checkout", copy)
    assert pairs_module.main(["HEAD~1", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert exports == ["base", "this"]
    # two pairs of each workload, one workload after the other, in BENCHMARK.json's order
    assert [c[1] for c in calls] == [n for n in names for _ in range(4)]
    blocks = out.split("\n\n")
    assert len(blocks) == len(names)
    for name, block in zip(names, blocks):
        assert block.startswith(f"{name}, seed 0, 15 s per run: base = HEAD~1")
        assert block.count("pair ") == 2 and "iter_cost: this wins 2/2 pairs" in block


def test_repeated_workloads_print_the_single_reports_in_turn(pairs_module, monkeypatch, capsys):
    costs = {"mor_demo": ([1.0, 1.1], [0.9, 1.0]), "image_fixed": ([1.2, 1.3], [1.1, 1.25])}

    def report(*workloads):
        stub_runner(pairs_module, monkeypatch, {
            "base": [result(c) for w in workloads for c in costs[w][0]],
            "this": [result(c) for w in workloads for c in costs[w][1]],
        })
        argv = ["HEAD~1", "--pairs", "2", "--seconds", "3"]
        for w in workloads:
            argv += ["--workload", w]
        assert pairs_module.main(argv) == 0
        return capsys.readouterr().out

    first, second = report("mor_demo"), report("image_fixed")
    assert first.startswith("mor_demo, seed 0, 3 s per run: base = HEAD~1, this = ")
    assert "pair 2 (this first), base/this: iter_cost 1.1/1" in first
    assert second.startswith("image_fixed, seed 0, 3 s per run: ")
    assert report("mor_demo", "image_fixed") == first + "\n" + second


def test_repeated_seeds_print_the_single_reports_in_turn(pairs_module, monkeypatch, capsys):
    costs = {0: ([1.0, 1.1], [0.9, 1.0]), 2718: ([1.2, 1.3], [1.1, 1.25])}
    runs = []

    def report(*seeds):
        calls = stub_runner(pairs_module, monkeypatch, {
            "base": [result(c) for s in seeds for c in costs[s][0]],
            "this": [result(c) for s in seeds for c in costs[s][1]],
        })
        argv = ["HEAD~1", "--workload", "image_fixed", "--pairs", "2", "--seconds", "3"]
        for s in seeds:
            argv += ["--seed", str(s)]
        assert pairs_module.main(argv) == 0
        runs.append([c[2] for c in calls])
        return capsys.readouterr().out

    first, second = report(0), report(2718)
    assert first.startswith("image_fixed, seed 0, 3 s per run: base = HEAD~1, this = ")
    assert "pair 2 (this first), base/this: iter_cost 1.1/1" in first
    assert second.startswith("image_fixed, seed 2718, 3 s per run: ")
    assert report(0, 2718) == first + "\n" + second
    assert runs[2] == [0] * 4 + [2718] * 4  # one seed after the other, on one export


def test_unknown_workload_rejected(pairs_module, monkeypatch):
    stub_runner(pairs_module, monkeypatch, {"base": [], "this": []})
    with pytest.raises(SystemExit):
        pairs_module.main(["HEAD~1", "--workload", "mor_demo", "--workload", "no_such_workload"])
