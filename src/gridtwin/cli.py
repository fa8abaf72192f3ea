"""Command-line entry point.

    gridtwin validate <cfg>
    gridtwin run <cfg> [--until HH:MM[:SS]] [--out DIR] [--realtime]
    gridtwin report <dirA> <dirB>

Exit codes: 0 ok, 1 config or export error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .capture import FILES, fmt_time, sum_in_order
from .cosim import SchedulerError
from .scenario import ConfigError, ScenarioConfig, build, parse_time, validate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def cmd_validate(args) -> int:
    try:
        cfg = ScenarioConfig.load(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    issues = validate(cfg)
    for issue in issues:
        print(f"error: {issue}")
    if issues:
        print(f"{len(issues)} problem(s) found")
        return EXIT_CONFIG
    print(f"{cfg.name}: ok")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        cfg = ScenarioConfig.load(args.config)
        sim = build(cfg)
        until = None if args.until is None else parse_time(args.until)
        if until is not None and until <= cfg.start_s:
            raise ConfigError(f"--until {args.until} is not after "
                              f"clock.start {fmt_time(cfg.start_s)}")
        outdir = Path(args.out) if args.out else Path(f"dataset-{cfg.name}")
        outdir.mkdir(parents=True, exist_ok=True)  # a bad --out costs no run
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = sim.run(until_s=until, realtime=args.realtime)
    except SchedulerError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        summary = None
    try:
        sim.export(outdir)  # after an abort too: flush partial outputs
    except OSError as exc:
        print(f"export error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if summary is None:
        return EXIT_RUNTIME
    print(f"{cfg.name}: {summary.steps} steps in {summary.wall_s:.2f}s "
          f"-> {outdir}")
    return EXIT_OK


# the run summary numbers that report prints
_SUMMARY_KEYS = ("steps", "frames", "flow_count", "imbalance_integral_kws",
                 "peak_import_kw", "pv_curtailed_kwh")


def _read_dataset(path: Path) -> dict:
    summary_file = path / FILES["summary"]
    process_file = path / FILES["process"]
    if not summary_file.is_file() or not process_file.is_file():
        raise ConfigError(f"{path} is not a complete dataset directory")
    data = json.loads(summary_file.read_text())
    window = data.get("attack_window") if isinstance(data, dict) else None
    if not isinstance(data, dict) or not all(
            isinstance(data.get(k), (int, float)) for k in _SUMMARY_KEYS) \
            or not (window is None or isinstance(window, dict) and all(
                isinstance(window.get(k), str) for k in ("start", "end"))):
        raise ConfigError(f"{summary_file}: not a gridtwin run summary")
    if window is not None:  # a bad time is refused here, where it is caught
        parse_time(window["start"]), parse_time(window["end"])
    samples = []
    for row in process_file.read_text().splitlines()[1:]:
        parts = row.split(",")
        if len(parts) < 5:
            raise ConfigError(f"{process_file}: short row {row!r}")
        h, m, s = parts[0].split(":")
        t = int(h) * 3600 + int(m) * 60 + float(s)
        samples.append((t, float(parts[4])))  # (t_s, transformer_kw)
    flows_file = path / FILES["flows"]
    flows = flows_file.read_text() if flows_file.is_file() else ""
    edges = {tuple(row.split(",")[:4]) for row in flows.splitlines()[1:]}
    return {"summary": data, "samples": samples, "edges": edges}


def _window_integral(samples, window) -> float:
    if not window or len(samples) < 2:
        return 0.0
    t0, t1 = parse_time(window["start"]), parse_time(window["end"])
    # the mean spacing: two times rounded to the millisecond give the step
    # no better than to 1 ms
    dt = (samples[-1][0] - samples[0][0]) / (len(samples) - 1)
    return sum_in_order(abs(p) * dt for t, p in samples if t0 <= t < t1)


def cmd_report(args) -> int:
    try:
        a = _read_dataset(Path(args.dir_a))
        b = _read_dataset(Path(args.dir_b))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    window = b["summary"].get("attack_window") or a["summary"].get("attack_window")
    print(f"comparison: {args.dir_a} vs {args.dir_b}")
    for label, d in (("A", a), ("B", b)):
        s = d["summary"]
        print(f"  [{label}] steps={s['steps']} frames={s['frames']} "
              f"flows={s['flow_count']}")
        print(f"      imbalance integral = {s['imbalance_integral_kws']:.1f} kW*s, "
              f"peak import = {s['peak_import_kw']:.2f} kW, "
              f"pv curtailed = {s['pv_curtailed_kwh']:.2f} kWh")
    if window:
        ia = _window_integral(a["samples"], window)
        ib = _window_integral(b["samples"], window)
        ratio = ib / ia if ia > 0 else float("inf")
        print(f"  attack window {window['start']}-{window['end']}: "
              f"integral A = {ia:.1f}, B = {ib:.1f} kW*s (ratio {ratio:.1f}x)")
    only_a = sorted(a["edges"] - b["edges"])
    only_b = sorted(b["edges"] - a["edges"])
    print(f"  flow edges: {len(a['edges'])} in A, {len(b['edges'])} in B, "
          f"{len(only_a)} only-A, {len(only_b)} only-B")
    for e in only_b:
        print(f"    only in B: {e[0]} {e[2]} -> {e[1]} {e[3]}")
    for e in only_a:
        print(f"    only in A: {e[0]} {e[2]} -> {e[1]} {e[3]}")
    if not only_a and not only_b and a["summary"] == b["summary"]:
        print("  datasets are identical")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridtwin",
        description="Cyber-physical twin of a small smart-grid segment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config")
    p.add_argument("config")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="run a scenario and export its dataset")
    p.add_argument("config")
    p.add_argument("--until", help="stop at this time-of-day (HH:MM[:SS])")
    p.add_argument("--out", help="dataset output directory")
    p.add_argument("--realtime", action="store_true",
                   help="pace the simulation to wall-clock time")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", help="compare two exported datasets")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
