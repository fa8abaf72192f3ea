"""Run recording and dataset export.

Collects one process-data sample per step, every frame the network
transports, aggregated flow records keyed by the full
(src MAC, dst MAC, src IP, dst IP) 4-tuple (so ARP spoofing splits
flows instead of merging them), and a plain-text data-flow graph.

Export formats:
  process.csv    t,pv_kw,bss_kw,load_kw,transformer_kw,soc_pct,attack_active
  flows.csv      src_mac,dst_mac,src_ip,dst_ip,frames,bytes,first_ts,last_ts
  capture.pcap   classic pcap, little-endian, v2.4, linktype 1 (Ethernet)
  flowgraph.txt  `node <mac> <ip> <role>` / `edge ... frames=N bytes=N` lines
  summary.json   machine-readable run statistics
"""

from __future__ import annotations

import datetime as _dt
import json
import struct
from dataclasses import dataclass
from pathlib import Path

from .attack import AttackPlan
from .cosim import SimClock
from .netem import EthernetFrame, IpDelivery
# still importable from here: perfbench/tracing.py wraps it by this name
from .netem import parse_ipv4_tcp  # noqa: F401

PCAP_MAGIC = 0xA1B2C3D4
PCAP_LINKTYPE_ETHERNET = 1
FORMATS = ("process", "flows", "pcap", "graph", "summary")


class ExportError(ValueError):
    pass


def fmt_time(t_s: float) -> str:
    """Seconds since midnight as HH:MM:SS[.mmm], rounded to the millisecond."""
    whole, ms = divmod(round(t_s * 1000), 1000)
    h, rem = divmod(whole, 3600)
    m, s = divmod(rem, 60)
    base = f"{h:02d}:{m:02d}:{s:02d}"
    return f"{base}.{ms:03d}" if ms else base


@dataclass(frozen=True)
class ProcessSample:
    t_s: float
    pv_kw: float
    pv_available_kw: float
    bss_kw: float
    load_kw: float
    transformer_kw: float
    soc_pct: float
    attack_active: bool


@dataclass
class FlowRecord:
    src_mac: str
    dst_mac: str
    src_ip: str
    dst_ip: str
    frames: int = 0
    bytes: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0


class Capture:
    def __init__(self, clock: SimClock, deadband_kw: float,
                 plan: AttackPlan | None = None,
                 roles_by_ip: dict[str, tuple[str, str]] | None = None,
                 date: str = "2021-06-15"):
        self.clock = clock
        self.deadband_kw = deadband_kw  # EMS deadband, for the summary
        self.plan = plan
        # attack_active marks the steps the attacker's window covers
        self._window = (0, 0) if plan is None else plan.steps(clock)[1:]
        self.roles_by_ip = roles_by_ip or {}  # ip -> (role, true mac)
        day = _dt.datetime.fromisoformat(date).replace(tzinfo=_dt.timezone.utc)
        self._day_epoch = day.timestamp()
        self.samples: list[ProcessSample] = []
        self.frames: list[tuple[float, bytes]] = []
        self.flows: dict[tuple[str, str, str, str], FlowRecord] = {}

    # -- recording --------------------------------------------------------

    def record_frame(self, frame: EthernetFrame, step: int) -> None:
        t = self.clock.time_s(step)
        raw = frame.to_bytes()  # the only place a frame's bytes are made
        self.frames.append((t, raw))
        f = frame.packet
        if not isinstance(f, IpDelivery):
            return  # ARP shows up in the pcap, flows track IP conversations
        key = (frame.src_mac, frame.dst_mac, f.src_ip, f.dst_ip)
        rec = self.flows.get(key)
        if rec is None:
            rec = FlowRecord(*key, first_ts=t)
            self.flows[key] = rec
        rec.frames += 1
        rec.bytes += len(raw)
        rec.last_ts = t

    def record_sample(self, step: int, pv_kw: float, bss_kw: float,
                      load_kw: float, transformer_kw: float,
                      soc_pct: float, pv_available_kw: float) -> None:
        start, end = self._window
        self.samples.append(ProcessSample(
            self.clock.time_s(step), pv_kw, pv_available_kw, bss_kw, load_kw,
            transformer_kw, soc_pct, start <= step < end))

    # -- export -----------------------------------------------------------

    def export(self, outdir: str | Path,
               formats: tuple[str, ...] = FORMATS) -> dict[str, Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for f in formats:
            if f not in FORMATS:
                raise ExportError(f"unsupported export format {f!r}")
        written: dict[str, Path] = {}
        if "process" in formats:
            written["process"] = self._export_process(outdir / "process.csv")
        if "flows" in formats:
            written["flows"] = self._export_flows(outdir / "flows.csv")
        if "pcap" in formats:
            written["pcap"] = self._export_pcap(outdir / "capture.pcap")
        if "graph" in formats:
            written["graph"] = self._export_graph(outdir / "flowgraph.txt")
        if "summary" in formats:
            path = outdir / "summary.json"
            path.write_text(json.dumps(self.summarize(), indent=2,
                                       sort_keys=True) + "\n")
            written["summary"] = path
        return written

    def _export_process(self, path: Path) -> Path:
        lines = ["t,pv_kw,bss_kw,load_kw,transformer_kw,soc_pct,attack_active"]
        for s in self.samples:
            lines.append(",".join([
                fmt_time(s.t_s), f"{s.pv_kw:.6f}", f"{s.bss_kw:.6f}",
                f"{s.load_kw:.6f}", f"{s.transformer_kw:.6f}",
                f"{s.soc_pct:.6f}", "1" if s.attack_active else "0"]))
        path.write_text("\n".join(lines) + "\n")
        return path

    def _export_flows(self, path: Path) -> Path:
        lines = ["src_mac,dst_mac,src_ip,dst_ip,frames,bytes,first_ts,last_ts"]
        for key in sorted(self.flows):
            r = self.flows[key]
            lines.append(f"{r.src_mac},{r.dst_mac},{r.src_ip},{r.dst_ip},"
                         f"{r.frames},{r.bytes},{fmt_time(r.first_ts)},"
                         f"{fmt_time(r.last_ts)}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def _export_pcap(self, path: Path) -> Path:
        with path.open("wb") as fh:
            fh.write(struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535,
                                 PCAP_LINKTYPE_ETHERNET))
            for t, raw in self.frames:
                ts = self._day_epoch + t
                sec = int(ts)
                usec = round((ts - sec) * 1_000_000)
                if usec == 1_000_000:
                    sec, usec = sec + 1, 0
                fh.write(struct.pack("<IIII", sec, usec, len(raw), len(raw)))
                fh.write(raw)
        return path

    def _node_role(self, mac: str, ip: str) -> str:
        entry = self.roles_by_ip.get(ip)
        if entry is None:
            return "unknown"
        role, true_mac = entry
        return role if mac == true_mac else f"spoofed-{role}"

    def _export_graph(self, path: Path) -> Path:
        nodes = sorted({(m, i) for r in self.flows.values()
                        for m, i in ((r.src_mac, r.src_ip),
                                     (r.dst_mac, r.dst_ip))})
        lines = [f"node {m} {i} {self._node_role(m, i)}" for m, i in nodes]
        for key in sorted(self.flows):
            r = self.flows[key]
            lines.append(f"edge {r.src_mac} {r.src_ip} -> {r.dst_mac} "
                         f"{r.dst_ip} frames={r.frames} bytes={r.bytes}")
        path.write_text("\n".join(lines) + "\n")
        return path

    # -- summary ----------------------------------------------------------

    def integral_abs_transformer(self, t0: float | None = None,
                                 t1: float | None = None) -> float:
        """∫|transformer_kw| dt in kW·s over [t0, t1)."""
        return self._integral(
            s for s in self.samples
            if (t0 is None or s.t_s >= t0) and (t1 is None or s.t_s < t1))

    def _integral(self, samples) -> float:
        """∫|transformer_kw| dt in kW·s over the given samples."""
        total = 0.0
        for s in samples:
            total += abs(s.transformer_kw) * self.clock.step_s
        return total

    def summarize(self) -> dict:
        samples, n = self.samples, len(self.samples)
        power = [s.transformer_kw for s in samples]
        out = {
            "steps": n,
            "frames": len(self.frames),
            "flow_count": len(self.flows),
            "imbalance_integral_kws": self._integral(samples),
            "peak_import_kw": max(power, default=0.0),
            "peak_export_kw": min(power, default=0.0),
            "pv_curtailed_kwh": sum(
                max(0.0, s.pv_available_kw - s.pv_kw) * self.clock.step_s
                for s in samples) / 3600.0,
            "within_deadband_fraction": (
                sum(1 for p in power if abs(p) <= self.deadband_kw) / n
                if n else 0.0),
            "attack_window": None,
        }
        if self.plan is not None:
            window = [s for s in samples if s.attack_active]
            out["attack_window"] = {
                "start": fmt_time(self.plan.start_s),
                "end": fmt_time(self.plan.end_s),
                "imbalance_integral_kws": self._integral(window),
                "labeled_steps": len(window),
                "peak_import_kw": max((s.transformer_kw for s in window),
                                      default=0.0),
                "mean_bss_kw": (sum(s.bss_kw for s in window) / len(window)
                                if window else 0.0),
            }
        return out
