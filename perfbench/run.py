"""gridtwin benchmark: host time, memory and a per-layer split.

    python3 perfbench/run.py --workload {normal,attack,dense-profile,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a gridtwin checkout.  Each iteration is a fresh
single-threaded process (perfbench/iteration.py) that sets up, runs and
exports one scenario; iterations run one at a time, a closed loop, for
about ``--seconds`` (at least one).  Every iteration is checked (see README.md).
Each set-up, export and step window is timed and scaled to one host
speed (see ``end_to_end``); the metrics are medians over the run.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics.  The last line of standard output is one JSON
object; the exit code is 1 if any iteration failed and 2 if the checkout
is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, prepare  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"
# stop starting iterations this long after the start, so one invocation
# ends well inside three minutes even on a slow host
LIMIT_S = 150.0
ACCOUNTING_TOLERANCE = 0.01


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def iterate(workload: str, config: Path, workdir: Path, traced: bool,
            deadline: float) -> dict:
    """One iteration in a fresh process; a dict with "errors" on failure."""
    cmd = [sys.executable, str(HERE / "iteration.py"), "--workload", workload,
           "--config", str(config), "--workdir", str(workdir),
           "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"errors": ["iteration timed out"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"errors": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; its value is their median.

    The shared host slows down by up to 2x for stretches of 0.1 s to
    minutes.  So every set-up, run window and export is scaled to the
    reference speed by the reference unit timed just before and just
    after it (reference.py).  ``run_s`` has one sample per iteration, the
    sum of its scaled windows.
    """
    def scaled(times: str, units: str) -> list[list[float]]:
        return [reference.scaled(r[times], r[units]) for r in reps]

    setup = [t for ts in scaled("setup_s", "setup_units") for t in ts]
    export = [t for ts in scaled("export_s", "export_units") for t in ts]
    run = [sum(ts) for ts in scaled("windows", "window_units")]
    return {
        "setup_s": setup,
        "run_s": run,
        "steps_per_s": [r["steps"] / t for r, t in zip(reps, run)],
        "export_s": export,
        "total_s": [statistics.median(setup) + t + statistics.median(export)
                    for t in run],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for r in traced:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    traced_run = statistics.median(r["run_s"] for r in traced)
    samples["trace.run_s"] = [r["run_s"] for r in traced]
    samples["trace.overhead_s"] = [
        traced_run - statistics.median(r["run_s"] for r in plain)]
    return samples


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    start = time.monotonic()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    reps: list[dict] = []
    reference = None  # artifact digests of the first good iteration
    try:
        config = prepare(workload, seed, workdir / "inputs")
        longest = 0.0
        while True:
            round_start = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                rep = iterate(workload, config, workdir / f"it{len(reps)}",
                              traced, start + LIMIT_S + 20.0)
                rep["traced"] = traced
                gate(rep, reference)
                if reference is None and not rep["errors"]:
                    reference = rep["digests"]
                reps.append(rep)
                print(describe(len(reps), rep), flush=True)
            now = time.monotonic()
            longest = max(longest, now - round_start)
            # start another round only if it should end within the budget
            if now + longest - start > seconds or now - start >= LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in reps if not r["errors"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    ok = len(good) == len(reps) and plain and (traced or not trace)
    samples = {}
    if ok:
        samples = per_layer(plain, traced) if trace else end_to_end(plain)
    return {"workload": workload, "reps": reps, "ok": bool(ok),
            "samples": samples, "digests": reference,
            "missing": sorted({m for r in traced for m in r["missing"]})}


def gate(rep: dict, reference: dict | None) -> None:
    """The checks that span iterations: same bytes as the first good
    iteration, and a traced run fully accounted for by its spans."""
    if rep["errors"]:
        return
    if reference is not None and rep["digests"] != reference:
        rep["errors"].append("artifacts differ from the first iteration")
    if rep["traced"]:
        gap = abs(rep["accounted_s"] - rep["run_s"])
        if gap > ACCOUNTING_TOLERANCE * rep["run_s"]:
            rep["errors"].append(f"self times account for {rep['accounted_s']:.4f}"
                                 f" s of {rep['run_s']:.4f} s")


def describe(i: int, rep: dict) -> str:
    kind = "traced" if rep["traced"] else "plain"
    if rep["errors"]:
        return f"# iteration {i} ({kind}) FAILED: " + " | ".join(rep["errors"])
    return (f"# iteration {i} ({kind}): setup "
            f"{statistics.median(rep['setup_s']) * 1e3:.2f} ms, run "
            f"{rep['run_s']:.3f} s, export "
            f"{statistics.median(rep['export_s']) * 1e3:.1f} ms, peak rss "
            f"{rep['peak_rss_mb']:.1f} MB, {rep['steps']} steps, checks ok")


def report(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]
    for metric, values in result["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"{name:14s} {metric:28s} {q2:14.6g} {units.get(metric, '?'):6s}"
              f" q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    if result["missing"]:
        print(f"{name:14s} missing spans: {', '.join(result['missing'])}")
    samples = result["samples"]
    if "profiles.sample_s" in samples:
        share = (statistics.median(samples["profiles.sample_s"])
                 / statistics.median(samples["trace.run_s"]))
        print(f"{name:14s} profiles.sample_s is {share:.1%} of traced run_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridtwin" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no gridtwin source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names]
    metrics: dict[str, dict] = {}
    for result in results:
        report(result, units)
        if not result["ok"]:
            continue
        values = {m: statistics.median(v) for m, v in result["samples"].items()}
        absent = sorted(set(units) - set(values))
        if absent:  # a replay whose target is gone: missing, not failed
            print(f"# {result['workload']}: not measured, reported as 0: "
                  f"{', '.join(absent)}")
        prefix = "" if len(names) == 1 else result["workload"] + "."
        for m in units:
            metrics[prefix + m] = {"value": values.get(m, 0.0),
                                   "unit": units[m]}

    detail = {"env": env, "workloads": {
        r["workload"]: {"digests": r["digests"], "missing": r["missing"],
                        "samples": r["samples"]} for r in results}}
    print("# detail " + json.dumps(detail, sort_keys=True))
    attempted = sum(len(r["reps"]) for r in results)
    failed = sum(1 for r in results for rep in r["reps"] if rep["errors"])
    correct = failed == 0 and all(r["ok"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
