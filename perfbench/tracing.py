"""Per-layer tracing from outside the program.

Spans are recorded by wrapping gridtwin's public entry points where the
calling module looks them up: ``Scheduler.register`` and
``Scheduler.add_hook`` (one span per simulator behaviour, keyed by
simulator id, and one per end-of-step hook), the Modbus and IPv4/TCP
codecs, profile sampling and loading, the capture sink and the export
writers.  A span's self time is its duration minus the time its child
spans cover.  A target that no longer exists is reported as missing and
its metrics read 0; it does not fail the run.

Micro-replays feed a finished run's own captured frames, Modbus payloads
and step times back through the public codec and sampling functions.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import struct
import time

# (module[:class], attribute, span name).  Several call sites of one
# function share a span name.
SPANS = (
    ("gridtwin.scenario:ScenarioConfig", "load", "scenario.load"),
    ("gridtwin.scenario", "validate", "scenario.validate"),
    ("gridtwin.scenario", "build", "scenario.build"),
    ("gridtwin.scenario", "load_profile", "profiles.load"),
    ("gridtwin.devices", "sample", "profiles.sample"),
    ("gridtwin.devices", "decode", "modbus.decode"),
    ("gridtwin.devices", "encode", "modbus.encode"),
    ("gridtwin.devices", "serve", "modbus.serve"),
    ("gridtwin.ems", "decode", "modbus.decode"),
    ("gridtwin.ems", "encode", "modbus.encode"),
    ("gridtwin.attack", "decode", "modbus.decode"),
    ("gridtwin.attack", "encode", "modbus.encode"),
    ("gridtwin.netem", "build_ipv4_tcp", "netem.build_ipv4_tcp"),
    ("gridtwin.netem", "parse_ipv4_tcp", "netem.parse_ipv4_tcp"),
    ("gridtwin.capture", "parse_ipv4_tcp", "netem.parse_ipv4_tcp"),
    ("gridtwin.capture:Capture", "record_frame", "capture.record_frame"),
    ("gridtwin.capture:Capture", "export", "capture.export"),
    ("gridtwin.capture:Capture", "_export_process", "capture.export_process"),
    ("gridtwin.capture:Capture", "_export_flows", "capture.export_flows"),
    ("gridtwin.capture:Capture", "_export_pcap", "capture.export_pcap"),
    ("gridtwin.capture:Capture", "_export_graph", "capture.export_graph"),
)

# (module[:class], attribute, counter name, predicate on the result or None)
COUNTERS = (
    ("gridtwin.devices", "serve", "modbus.exceptions",
     lambda adu: adu.is_exception),
    ("gridtwin.ems:EmsController", "_start_cycle", "ems.cycles", None),
    ("gridtwin.ems", "control_step", "ems.acted", None),
    ("gridtwin.ems", "control_step", "ems.commands",
     lambda cmd: cmd is not None),
    ("gridtwin.netem:Host", "forward_ip", "attack.frames_forwarded", None),
)

# simulator id / hook qualname -> layer span name
SIMULATORS = {"grid": "grid.step", "pv": "devices.pv.step",
              "bss": "devices.bss.step", "load": "devices.load.step",
              "meter": "devices.meter.step", "ems": "ems.step",
              "attacker": "attack.step"}
HOOKS = {"Network.transport": "netem.transport",
         "build.<locals>.sample_hook": "capture.record_sample"}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}    # name -> [total_s, self_s, calls]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [0.0]                 # child time of each open span

    def span(self, name: str, fn):
        rec = self.stats.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += dt
                rec[1] += dt - child
                rec[2] += 1
        return traced

    def counter(self, name: str, fn, pred):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if pred is None or pred(result):
                counts[name] += 1
            return result
        return counted

    def _patch(self, target: str, attr: str, wrap) -> None:
        try:
            owner = _resolve(target)
            static = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{target}.{attr}")
            return
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(wrap(static.__func__)))
        else:
            setattr(owner, attr, wrap(static))

    def install(self) -> None:
        """Wrap every target; call before the scenario is loaded."""
        for target, attr, name in SPANS:
            self._patch(target, attr, lambda fn, n=name: self.span(n, fn))
        for target, attr, name, pred in COUNTERS:
            self._patch(target, attr,
                        lambda fn, n=name, p=pred: self.counter(n, fn, p))
        from gridtwin.cosim import Scheduler
        register, add_hook = Scheduler.register, Scheduler.add_hook
        tracer = self

        def traced_register(sched, handle):
            name = SIMULATORS.get(handle.id, f"sim.{handle.id}")
            handle = dataclasses.replace(
                handle, behavior=tracer.span(name, handle.behavior))
            return register(sched, handle)

        def traced_add_hook(sched, fn):
            qualname = getattr(fn, "__qualname__", repr(fn))
            return add_hook(sched, tracer.span(
                HOOKS.get(qualname, f"hook.{qualname}"), fn))

        Scheduler.register = traced_register
        Scheduler.add_hook = traced_add_hook

    def snapshot(self) -> dict:
        return {"root": self._stack[0],
                "stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Spans and counts recorded between two snapshots."""
        zero = [0.0, 0.0, 0]
        stats = {k: [a - b for a, b in zip(v, before["stats"].get(k, zero))]
                 for k, v in after["stats"].items()}
        counts = {k: v - before["counts"].get(k, 0)
                  for k, v in after["counts"].items()}
        return {"root": after["root"] - before["root"], "stats": stats,
                "counts": counts}


def _stat(stats: dict, name: str, field: int) -> float:
    """total_s (0), self_s (1) or calls (2) of a span; 0 if it never opened."""
    return stats.get(name, (0.0, 0.0, 0))[field]


def run_layers(run: dict, run_s: float, sim) -> tuple[dict, list[str], float]:
    """Per-layer metrics of one traced run, the layer spans that never
    opened, and the sum of all self times plus cosim's own time."""
    stats, counts = run["stats"], run["counts"]
    missing = sorted(n for n in (*SIMULATORS.values(), *HOOKS.values())
                     if not _stat(stats, n, 2))

    def total(name):
        return _stat(stats, name, 0)

    def self_(name):
        return _stat(stats, name, 1)

    net = sim.network
    delivered, flooded = net.delivered, net.flooded
    frames = delivered + flooded
    cycles = counts.get("ems.cycles", 0)
    out = {
        "cosim.self_s": run_s - run["root"],
        "cosim.transcript_records": len(getattr(sim.scheduler, "transcript",
                                                ())),
        "profiles.sample_s": total("profiles.sample"),
        "profiles.sample_calls": _stat(stats, "profiles.sample", 2),
        "grid.step_s": self_("grid.step"),
        "devices.pv.step_s": self_("devices.pv.step"),
        "devices.bss.step_s": self_("devices.bss.step"),
        "devices.load.step_s": self_("devices.load.step"),
        "devices.meter.step_s": self_("devices.meter.step"),
        "devices.requests_served": _stat(stats, "modbus.serve", 2),
        "modbus.decode_s": total("modbus.decode"),
        "modbus.encode_s": total("modbus.encode"),
        "modbus.serve_s": total("modbus.serve"),
        "modbus.exceptions": counts.get("modbus.exceptions", 0),
        "ems.step_s": self_("ems.step"),
        "ems.cycles": cycles,
        "ems.commands": counts.get("ems.commands", 0),
        "ems.timeouts": sum(1 for ev in getattr(sim.ems, "events", ())
                            if str(ev[-1]).endswith("-timeout")),
        "ems.cycle_success_ratio": (counts.get("ems.acted", 0) / cycles
                                    if cycles else 0.0),
        "netem.transport_s": self_("netem.transport"),
        "netem.us_per_frame": ((total("netem.transport")
                                - total("capture.record_frame"))
                               * 1e6 / frames if frames else 0.0),
        "netem.build_ipv4_tcp_s": total("netem.build_ipv4_tcp"),
        "netem.parse_ipv4_tcp_s": total("netem.parse_ipv4_tcp"),
        "netem.frames_delivered": delivered,
        "netem.frames_flooded": flooded,
        "netem.drops": sum(net.dropped.values()),
        "netem.unicast_ratio": delivered / frames if frames else 0.0,
        "attack.step_s": self_("attack.step"),
        "attack.frames_forwarded": counts.get("attack.frames_forwarded", 0),
        "capture.record_frame_s": self_("capture.record_frame"),
        "capture.record_sample_s": total("capture.record_sample"),
        "capture.frames": frames,
        "capture.flows": len(sim.capture.flows),
    }
    # every span opened during the run, including ones no layer maps
    accounted = sum(v[1] for v in stats.values()) + out["cosim.self_s"]
    return out, missing, accounted


def setup_layers(setup: dict, reps: int) -> dict:
    """Per-setup means of the load/validate/build spans."""
    stats = setup["stats"]
    return {"scenario.load_s": _stat(stats, "scenario.load", 0) / reps,
            "scenario.validate_s": _stat(stats, "scenario.validate", 0) / reps,
            "scenario.build_s": _stat(stats, "scenario.build", 1) / reps,
            "profiles.load_s": _stat(stats, "profiles.load", 0) / reps}


def export_layers(export: dict, reps: int) -> dict:
    """Per-export means of the writer spans; the summary is what export
    does outside the four file writers."""
    stats = export["stats"]
    out = {f"capture.export_{f}_s": _stat(stats, f"capture.export_{f}", 0)
           / reps for f in ("process", "flows", "pcap", "graph")}
    out["capture.export_summary_s"] = _stat(stats, "capture.export", 1) / reps
    return out


# -- micro-replays ---------------------------------------------------------

def read_pcap(path) -> list[bytes]:
    data = path.read_bytes()
    frames, pos = [], 24
    while pos + 16 <= len(data):
        incl = struct.unpack_from("<I", data, pos + 8)[0]
        frames.append(data[pos + 16:pos + 16 + incl])
        pos += 16 + incl
    return frames


def _spread(items: list, limit: int) -> list:
    """At most limit items, evenly spaced over the whole run."""
    step = max(1, len(items) // limit)
    return items[::step][:limit]


def per_call_ns(fn, args: list[tuple], passes: int = 5) -> float:
    """Median over passes of the mean host time of one call."""
    if not args:
        return 0.0
    clock = time.perf_counter_ns
    samples = []
    for _ in range(passes):
        t0 = clock()
        for a in args:
            fn(*a)
        samples.append((clock() - t0) / len(args))
    return statistics.median(samples)


def micro_replays(pcap_path, sim, steps: int) -> tuple[dict, list[str]]:
    """Codec and sampling cost per call on this run's own inputs, plus
    round-trip errors (each must be empty)."""
    from gridtwin import modbus, netem, profiles

    ipv4 = [f[14:] for f in read_pcap(pcap_path)
            if f[12:14] == b"\x08\x00"]
    ipv4 = _spread(ipv4, 4096)
    parsed = [netem.parse_ipv4_tcp(p) for p in ipv4]
    errors = []
    builds = []
    for raw, f in zip(ipv4, parsed):
        ip_id = struct.unpack_from(">H", raw, 4)[0]
        a = (f["src_ip"], f["dst_ip"], f["src_port"], f["dst_port"],
             f["seq"], f["ack"], f["payload"], ip_id)
        builds.append(a)
        total = struct.unpack_from(">H", raw, 2)[0]
        if netem.build_ipv4_tcp(*a) != raw[:total]:
            errors.append("build_ipv4_tcp(parse_ipv4_tcp(frame)) != frame")
    payloads = [f["payload"] for f in parsed
                if modbus.MODBUS_PORT in (f["src_port"], f["dst_port"])]
    adus = [modbus.decode(p) for p in payloads]
    if any(modbus.encode(a) != p for a, p in zip(adus, payloads)):
        errors.append("encode(decode(payload)) != payload")
    requests = [modbus.decode(f["payload"]) for f in parsed
                if f["dst_port"] == modbus.MODBUS_PORT]
    regmap = modbus.RegisterMap(modbus.DEVICE_PV, {
        modbus.REG_MEAS: 0, modbus.REG_MEAS_AUX: 0,
        modbus.REG_SETPOINT: modbus.NO_LIMIT})

    out = {
        "netem.parse_ipv4_tcp_ns": per_call_ns(
            netem.parse_ipv4_tcp, [(p,) for p in ipv4]),
        "netem.build_ipv4_tcp_ns": per_call_ns(netem.build_ipv4_tcp, builds),
        "modbus.decode_ns": per_call_ns(modbus.decode,
                                        [(p,) for p in payloads]),
        "modbus.encode_ns": per_call_ns(modbus.encode, [(a,) for a in adus]),
        "modbus.serve_ns": per_call_ns(modbus.serve,
                                       [(r, regmap) for r in requests]),
    }
    profile = sim.grid.load_profile
    step_s = sim.config.step_s
    # O(knots) per call today: keep each pass near a million knot visits
    limit = max(50, min(2000, 1_000_000 // len(profile.points)))
    times = _spread([k * step_s for k in range(steps)], limit)
    for interp in ("hold", "linear"):
        p = dataclasses.replace(profile, interpolation=interp)
        out[f"profiles.sample_{interp}_ns"] = per_call_ns(
            profiles.sample, [(p, t) for t in times])
    out["profiles.knots"] = (len(sim.grid.load_profile.points)
                             + len(sim.grid.pv_profile.points))
    return out, errors
