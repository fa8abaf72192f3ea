#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--seed S] attack=10 normal=6 dense-profile=6

Runs ``python3 perfbench/run.py --workload W --seed S --trace 0`` from
two copies, made side by side in one temporary directory (``TMPDIR``
sets where): ``parent``, the files committed at REV, and ``change``, the
working tree of the checkout this script lives in as it stands (its
tracked files and its untracked files that git does not ignore).
Neither copy starts with a ``__pycache__`` or anything else git
ignores, and both sit at paths of one length, so where a side runs does
not bias its memory or time.  Pair i uses
seed S + i and runs the parent first when i is even, the change first
when it is odd.  Each run is a fresh perfbench invocation at
perfbench's own run length; perfbench itself times set-up, run and
export in fresh processes.

The output file holds each run's final JSON line and its artifact
digests (from perfbench's ``# detail`` line), and per workload and
end-to-end metric the median and quartiles of each side, the pairs
the change won (ties count for neither side) and a verdict:

    gain           the change won at least 9 in 10 pairs, and its median
                   is better than the parent's by more than the parent's
                   interquartile range (IQR)
    regression     the change's median is worse than the parent's by more
                   than the metric's BENCHMARK.json bound
    unresolved     the parent's IQR is above the bound, relative to its
                   median, and not every change run beats every parent run
    no regression  otherwise

The same table is printed to standard output.  Exits 1 if any run failed
(no result, or perfbench's correctness gate refused it) or if the
artifact digests of any pair differ.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, root: Path = ROOT) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True).stdout


def export_parent(rev: str, into: Path, root: Path = ROOT) -> str:
    """The committed files of rev under into; its full commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}",
              root=root).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha, root=root))) as tar:
        tar.extractall(into, filter="data")
    return sha


def export_change(into: Path, root: Path = ROOT) -> None:
    """The working tree's tracked files, as they stand, and its untracked
    files that git does not ignore, under into."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                root=root).split(b"\0")
    for name in filter(None, names):
        src = root / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted since is left out
            dst = into / os.fsdecode(name)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)


def checkouts(rev: str, into: Path, root: Path = ROOT) -> tuple[str, dict]:
    """The parent at rev and the change, exported side by side under into;
    the parent's full commit id and each side's directory."""
    dirs = {"parent": into / "parent", "change": into / "change"}
    sha = export_parent(rev, dirs["parent"], root)
    export_change(dirs["change"], root)
    return sha, dirs


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench invocation: its final JSON line and artifact digests,
    or an "error" if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = {"exit": proc.returncode}
    try:
        out["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out["error"] = proc.stderr[-2000:]
        return out
    for line in lines:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
            out["digests"] = detail["workloads"][workload]["digests"]
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def value(run: dict, metric: str) -> float | None:
    metrics = run.get("result", {}).get("metrics", {})
    return metrics[metric]["value"] if metric in metrics else None


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            lower: bool, bound: float) -> str:
    """gain, regression, unresolved or no regression; see the module
    docstring."""
    p = quartiles(parent)
    iqr = p["q3"] - p["q1"]
    gap = p["median"] - statistics.median(change)  # > 0: the change is better
    if not lower:
        gap = -gap
    if 10 * wins >= 9 * pairs and gap > iqr:
        return "gain"
    if -gap > bound * abs(p["median"]):
        return "regression"
    beats_all = max(change) < min(parent) if lower \
        else min(change) > max(parent)
    if iqr > bound * abs(p["median"]) and not beats_all:
        return "unresolved"
    return "no regression"


def summarise(pairs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the pairs
    the change won and the verdict."""
    out = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        sides = {side: [v for p in pairs
                        if (v := value(p[side], name)) is not None]
                 for side in ("parent", "change")}
        if not all(sides.values()):
            continue
        wins = 0
        for p in pairs:
            a, b = value(p["parent"], name), value(p["change"], name)
            if a is not None and b is not None and a != b:
                wins += (b < a) == lower
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "bound": m["bound"], "change_wins": wins,
                     "pairs": len(pairs),
                     "verdict": verdict(sides["parent"], sides["change"], wins,
                                        len(pairs), lower, m["bound"]),
                     **{side: quartiles(v) for side, v in sides.items()}}
    return out


def workload_entry(pairs: list[dict], spec: list[dict]) -> dict:
    """A workload's pairs, how many have equal digests, how many runs
    failed, and the per-metric summary."""
    return {
        "pairs": pairs,
        "digests_equal": sum(
            1 for p in pairs if p["parent"].get("digests")
            and p["parent"].get("digests") == p["change"].get("digests")),
        "failed_runs": sum(
            1 for p in pairs for side in ("parent", "change")
            if not p[side].get("result", {}).get("correct")),
        "metrics": summarise(pairs, spec)}


def clean(workloads: dict) -> bool:
    """No run failed and every pair's digests are equal."""
    return not any(entry["failed_runs"]
                   or entry["digests_equal"] < len(entry["pairs"])
                   for entry in workloads.values())


def table(workloads: dict) -> str:
    rows = []
    for w, entry in workloads.items():
        for name, s in entry["metrics"].items():
            p, c = s["parent"], s["change"]
            change = (c["median"] - p["median"]) / p["median"] \
                if p["median"] else 0.0
            rows.append(
                f"{w:14s} {name:12s} {p['median']:10.4g} [{p['q1']:.4g}, "
                f"{p['q3']:.4g}] -> {c['median']:10.4g} [{c['q1']:.4g}, "
                f"{c['q3']:.4g}] {change:+7.1%}  wins {s['change_wins']}/"
                f"{s['pairs']}  parent IQR {p['q3'] - p['q1']:.4g}  "
                f"{s['verdict']}")
        rows.append(f"{w:14s} digests equal in {entry['digests_equal']}/"
                    f"{len(entry['pairs'])} pairs; failed runs "
                    f"{entry['failed_runs']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("runs", nargs="+", metavar="WORKLOAD=PAIRS")
    args = ap.parse_args(argv)
    try:
        runs = [(w, int(n)) for w, n in (r.split("=", 1) for r in args.runs)]
    except ValueError:
        ap.error("each run is WORKLOAD=PAIRS, e.g. attack=10")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_sha, dirs = checkouts(args.parent, tmp)
        dirty = bool(git("status", "--porcelain"))  # untracked too: copied
        result = {
            "command": "python3 perfbench/run.py --workload W --seed S "
                       "--trace 0",
            "parent": parent_sha,
            "change": git("rev-parse", "HEAD").decode().strip()
            + ("+working-tree" if dirty else ""),
            "workloads": {}}
        for workload, n in runs:
            pairs = []
            for i in range(n):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = perfbench(dirs[side], workload, seed)
                pairs.append(pair)
                print(f"# {workload} pair {i + 1}/{n} seed {seed}: run_s "
                      f"{value(pair['parent'], 'run_s')} -> "
                      f"{value(pair['change'], 'run_s')}", flush=True)
            result["workloads"][workload] = workload_entry(pairs, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(table(result["workloads"]))
    return 0 if clean(result["workloads"]) else 1


if __name__ == "__main__":
    sys.exit(main())
