"""One benchmark iteration in a fresh process.

Loads, validates and builds the scenario several times (the last build
is kept), runs it once in fixed step windows, timing each window,
exports it several times into fresh directories, then checks the
outputs.  Before the first and after each set-up, window and export it
times the reference unit (reference.py), so that run.py can scale the
times to one host speed.  Prints one JSON object.  With
``--trace 1`` the gridtwin entry points are wrapped first and the
object also carries the per-layer split and the micro-replays.

    python3 perfbench/iteration.py --workload NAME --config FILE \
        --workdir DIR [--trace 1]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

RESIDUAL_LIMIT = 1e-9
# set-up and export each take milliseconds, so one iteration repeats them
SETUPS = 15
EXPORTS = 8
# the run is timed in this many windows of equal step counts, so that
# each window is scaled by the host speed measured right around it
WINDOWS = 400
# reference units timed around each set-up and export; one around a window
SETUP_UNITS = 10
EXPORT_UNITS = 20


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def window_steps(cfg) -> int:
    return math.ceil(round((cfg.end_s - cfg.start_s) / cfg.step_s, 9))


def run_windows(sim) -> tuple[int, list[float], list[float]]:
    """Run to the end through the public ``Simulation.run(until_s)`` in
    WINDOWS slices; the steps taken, each slice's host time and the
    reference unit's time before the first slice and after each."""
    cfg = sim.config
    n = window_steps(cfg)
    steps, times, units = 0, [], [reference.measure()]
    for k in range(1, WINDOWS + 1):
        # half a step before the boundary, so rounding cannot shift it
        until = (cfg.start_s + (k * n // WINDOWS - 0.5) * cfg.step_s
                 if k < WINDOWS else None)
        t0 = time.perf_counter()
        summary = sim.run(until)
        times.append(time.perf_counter() - t0)
        units.append(reference.measure())
        steps += summary.steps
    return steps, times, units


def check(sim, steps: int, written: dict, attack: bool) -> list[str]:
    """Invariants of one finished run; each broken one is a message."""
    errors = []
    want = window_steps(sim.config)
    rows = len(Path(written["process"]).read_text().splitlines()) - 1
    if not steps == want == rows:
        errors.append(f"steps: ran {steps}, exported {rows}, "
                      f"window has {want}")
    residual = max((abs(s.transformer_kw - (s.load_kw + s.bss_kw - s.pv_kw))
                    for s in sim.capture.samples), default=0.0)
    if residual > RESIDUAL_LIMIT:
        errors.append(f"bus conservation residual {residual:.3g} kW")
    socs = [s.soc_pct for s in sim.capture.samples]
    if socs and not 0.0 <= min(socs) <= max(socs) <= 100.0:
        errors.append(f"SOC left [0, 100] %: {min(socs)}..{max(socs)}")
    frames = len(tracing.read_pcap(Path(written["pcap"])))
    net = sim.network
    if frames != net.delivered + net.flooded:
        errors.append(f"pcap has {frames} frames, network moved "
                      f"{net.delivered} + {net.flooded} flooded")
    graph = Path(written["graph"]).read_text()
    spoofed = any(line.startswith("node ") and " spoofed-" in line
                  for line in graph.splitlines())
    if attack:
        kinds = [ev[-1] for ev in getattr(sim.attacker, "events", ())]
        if "mitm-start" not in kinds:
            errors.append("attack: mitm-start never logged")
        if not spoofed:
            errors.append("attack: flowgraph.txt has no spoofed- node")
    elif spoofed or sim.attacker is not None:
        errors.append("no attack configured, yet an attacker or spoofed node")
    return errors


def iterate(args) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        marks = [tracer.snapshot()]
    from gridtwin import scenario

    setup, setup_units = [], [reference.measure(SETUP_UNITS)]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cfg = scenario.ScenarioConfig.load(args.config)
        sim = scenario.build(cfg)
        setup.append(time.perf_counter() - t0)
        setup_units.append(reference.measure(SETUP_UNITS))
    if tracer:
        marks.append(tracer.snapshot())
    steps, windows, window_units = run_windows(sim)
    run_s = sum(windows)
    if tracer:
        marks.append(tracer.snapshot())

    export, export_units = [], [reference.measure(EXPORT_UNITS)]
    digests = None
    for i in range(EXPORTS):
        outdir = args.workdir / f"export-{i}"
        t0 = time.perf_counter()
        written = sim.export(outdir)
        export.append(time.perf_counter() - t0)
        export_units.append(reference.measure(EXPORT_UNITS))
        files = {Path(p).name: sha256(Path(p)) for p in written.values()}
        if digests is None:
            digests, kept = files, written
        elif files != digests:
            raise RuntimeError("two exports of one run differ")
        else:
            shutil.rmtree(outdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        marks.append(tracer.snapshot())

    result = {"setup_s": setup, "run_s": run_s, "windows": windows,
              "export_s": export, "setup_units": setup_units,
              "window_units": window_units, "export_units": export_units,
              "steps": steps, "peak_rss_mb": peak_rss_mb,
              "digests": digests,
              "errors": check(sim, steps, kept, args.workload == "attack")}
    if tracer:
        setup_d, run_d, export_d = (tracing.Tracer.delta(a, b)
                                    for a, b in zip(marks, marks[1:]))
        layers, missing, accounted = tracing.run_layers(run_d, run_s, sim)
        layers.update(tracing.setup_layers(setup_d, SETUPS))
        layers.update(tracing.export_layers(export_d, EXPORTS))
        layers["capture.pcap_bytes"] = Path(kept["pcap"]).stat().st_size
        try:
            micro, replay_errors = tracing.micro_replays(
                Path(kept["pcap"]), sim, steps)
        except (AttributeError, ImportError, KeyError) as exc:
            micro, replay_errors = {}, []
            missing.append(f"micro-replay ({exc!r})")
        layers.update(micro)
        result["errors"] += replay_errors
        result.update(layers=layers, missing=missing + tracer.missing,
                      accounted_s=accounted)
    shutil.rmtree(args.workdir, ignore_errors=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = iterate(args)
    except Exception:  # noqa: BLE001 - a failed run is reported, not raised
        result = {"errors": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
