"""tools/bench_pairs.py on synthetic pairs and a scratch git repository;
perfbench is never run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "steps_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25}]


def run(metric, value, correct=True, digests="d"):
    return {"exit": 0, "digests": {"process.csv": digests},
            "result": {"correct": correct,
                       "metrics": {metric: {"value": value}}}}


def pairs_of(parent, change, metric="run_s"):
    return [{"seed": i, "first": "parent", "parent": run(metric, a),
             "change": run(metric, b)}
            for i, (a, b) in enumerate(zip(parent, change))]


def summary(parent, change, metric="run_s"):
    return bench_pairs.summarise(pairs_of(parent, change, metric),
                                 SPEC)[metric]


PARENT = [2.00, 2.02, 1.98, 2.01, 1.99, 2.00, 2.03, 1.97, 2.00, 2.01]


class TestSummarise:
    def test_quartiles_and_wins(self):
        s = summary([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.5, 3.0])
        assert s["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
        assert s["change"]["median"] == 2.25
        assert (s["change_wins"], s["pairs"]) == (2, 4)  # the tie counts for neither
        assert (s["unit"], s["better"], s["bound"]) == ("s", "lower", 0.25)

    def test_higher_is_better_counts_the_other_way(self):
        s = summary([10.0, 10.0, 10.0], [11.0, 9.0, 12.0], "steps_per_s")
        assert s["change_wins"] == 2

    def test_metric_missing_on_one_side_is_left_out(self):
        pairs = pairs_of([1.0, 1.0], [1.0, 1.0])
        for p in pairs:
            p["change"]["result"]["metrics"] = {}
        assert bench_pairs.summarise(pairs, SPEC) == {}


class TestVerdict:
    def test_gain(self):
        s = summary(PARENT, [v * 0.9 for v in PARENT])
        assert (s["change_wins"], s["verdict"]) == (10, "gain")

    def test_gain_on_a_higher_is_better_metric(self):
        s = summary(PARENT, [v * 1.1 for v in PARENT], "steps_per_s")
        assert s["verdict"] == "gain"

    def test_eight_wins_in_ten_is_no_gain(self):
        change = [v * 0.9 for v in PARENT[:8]] + [2.1, 2.1]
        s = summary(PARENT, change)
        assert (s["change_wins"], s["verdict"]) == (8, "no regression")

    def test_gap_inside_the_parent_iqr_is_no_gain(self):
        s = summary(PARENT, [v - 0.001 for v in PARENT])
        assert s["change_wins"] == 10
        assert s["verdict"] == "no regression"

    def test_regression_beyond_the_bound(self):
        assert summary(PARENT, [v * 1.3 for v in PARENT])["verdict"] \
            == "regression"
        assert summary(PARENT, [v * 0.7 for v in PARENT],
                       "steps_per_s")["verdict"] == "regression"

    def test_worse_within_the_bound_is_no_regression(self):
        assert summary(PARENT, [v * 1.2 for v in PARENT])["verdict"] \
            == "no regression"

    def test_noisy_parent_is_unresolved(self):
        noisy = [1.0, 3.0] * 5  # IQR 2.0 against a median of 2.0
        assert summary(noisy, [2.0] * 10)["verdict"] == "unresolved"

    def test_noisy_parent_beaten_by_every_run_is_resolved(self):
        noisy = [2.0, 4.0] * 5  # IQR 2.0: a gap of 1.1 is no gain
        assert summary(noisy, [1.9] * 10)["verdict"] == "no regression"


class TestClean:
    def entry(self, pairs):
        return {"w": bench_pairs.workload_entry(pairs, SPEC)}

    def test_clean_pairs(self):
        entry = self.entry(pairs_of(PARENT, PARENT))
        assert entry["w"]["digests_equal"] == 10
        assert entry["w"]["failed_runs"] == 0
        assert bench_pairs.clean(entry)

    @pytest.mark.parametrize("side, field, bad", [
        ("change", "correct", False),
        ("parent", "correct", False),
        ("change", "digests", {"process.csv": "other"}),
        ("change", "result", None),
    ])
    def test_one_bad_run_is_not_clean(self, side, field, bad):
        pairs = pairs_of(PARENT, PARENT)
        if field == "correct":
            pairs[3][side]["result"]["correct"] = bad
        elif bad is None:
            del pairs[3][side][field]
        else:
            pairs[3][side][field] = bad
        assert not bench_pairs.clean(self.entry(pairs))


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True, text=True).stdout


def files(root):
    return {p.relative_to(root).as_posix(): p.read_text()
            for p in root.rglob("*") if p.is_file()}


class TestCheckouts:
    def test_both_sides_are_exported_side_by_side(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)
        (repo / ".gitignore").write_text("__pycache__/\n*.log\n")
        (repo / "pkg" / "mod.py").write_text("old\n")
        (repo / "gone.py").write_text("gone\n")
        git(repo, "init", "-q")
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", "parent")
        (repo / "pkg" / "mod.py").write_text("new\n")  # edited, not committed
        (repo / "gone.py").unlink()
        (repo / "added.py").write_text("added\n")  # untracked, not ignored
        (repo / "run.log").write_text("ignored\n")
        (repo / "pkg" / "__pycache__").mkdir()
        (repo / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_text("")

        sha, dirs = bench_pairs.checkouts("HEAD", tmp_path / "out", root=repo)
        assert sha == git(repo, "rev-parse", "HEAD").strip()
        assert dirs == {"parent": tmp_path / "out" / "parent",
                        "change": tmp_path / "out" / "change"}
        gitignore = "__pycache__/\n*.log\n"
        assert files(dirs["parent"]) == {
            ".gitignore": gitignore, "gone.py": "gone\n", "pkg/mod.py": "old\n"}
        assert files(dirs["change"]) == {
            ".gitignore": gitignore, "added.py": "added\n", "pkg/mod.py": "new\n"}
