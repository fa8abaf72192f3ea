"""Run recording and dataset export.

Collects one process-data sample per step, every frame the network
transports, and flow counts keyed by the full
(src MAC, dst MAC, src IP, dst IP) 4-tuple (so ARP spoofing splits
flows instead of merging them); a flow's record holds only its counts.

A run holds no Python object per frame or per step: each frame is
appended to one ``bytearray`` as its finished pcap record, and each step
to one ``array('d')`` as a row of ``ROW`` doubles, packed in one call
so that a value that is no float stores no part of its row.
``Capture.samples`` is a new list of ``ProcessSample`` made from the rows
at each read, so a reader that indexes it binds it once.
Once the records reach ``SPOOL_BYTES`` they are written to an unlinked
temporary file in one call, so the records a run holds in memory stay
bounded however long it runs.  ``summarize`` reads the rows in one
pass that keeps only running totals, so it holds no column either.

An IPv4 frame's record is one lookup of its link (MACs, IPs, ports),
which holds ``netem.tcp_link`` and the flow record, one record-header
pack, one ``netem.frame_header`` pack and the payload.  An ARP frame's
record is one pack: the record header, the Ethernet header,
``ArpMessage.to_bytes()`` and the 18 zero bytes that pad it to 60.

Export formats, as ``FILES`` names their files; ``export`` writes them
in this order, each with the method ``_export_<format>``:
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
import tempfile
import weakref
from array import array
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .attack import AttackPlan
from .cosim import SimClock
from .netem import (ETH_ARP, MIN_FRAME_LEN, EthernetFrame, IpDelivery,
                    eth_header, frame_header, tcp_link)
# still importable from here: perfbench/tracing.py wraps it by this name
from .netem import parse_ipv4_tcp  # noqa: F401

PCAP_MAGIC = 0xA1B2C3D4
PCAP_LINKTYPE_ETHERNET = 1
# each export format's file, in the order export writes them
FILES = {"process": "process.csv", "flows": "flows.csv",
         "pcap": "capture.pcap", "graph": "flowgraph.txt",
         "summary": "summary.json"}
FORMATS = tuple(FILES)
PCAP_HEADER = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535,
                          PCAP_LINKTYPE_ETHERNET)
_RECORD_HEADER = struct.Struct("<IIII")  # sec, usec, incl_len, orig_len
# an ARP frame's record: its record header, then 14 bytes of Ethernet
# header and 28 of ARP message, padded with zeros to MIN_FRAME_LEN
_ARP_RECORD = struct.Struct("<IIII14s28s18x")
# pcap record bytes held in memory before they are moved to the spool file
SPOOL_BYTES = 256 * 1024
# process rows formatted and written per write
PROCESS_CHUNK = 512
# %.6f writes what f"{x:.6f}" writes; %d writes attack_active's 1.0 as 1
_PROCESS_ROW = "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n"


class ExportError(ValueError):
    pass


@lru_cache(maxsize=64)  # rows come in time order: a few minutes suffice
def _hh_mm(minute: int) -> str:
    return "%02d:%02d:" % divmod(minute, 60)


def fmt_time(t_s: float) -> str:
    """Seconds since midnight as HH:MM:SS[.mmm], rounded to the millisecond."""
    whole, ms = divmod(round(t_s * 1000), 1000)
    m, s = divmod(whole, 60)
    if ms:
        return "%s%02d.%03d" % (_hh_mm(m), s, ms)
    return "%s%02d" % (_hh_mm(m), s)


def sum_in_order(values, total: float = 0.0) -> float:
    """Floats added left to right to total, as sum() added them before
    CPython 3.12 made it compensate: report's numbers, like summary.json's,
    must not depend on the Python."""
    for v in values:
        total += v
    return total


def day_epoch(date: str) -> float:
    """Midnight UTC of an ISO date, in seconds since 1970-01-01."""
    day = _dt.datetime.fromisoformat(date).replace(tzinfo=_dt.timezone.utc)
    return day.timestamp()


class ProcessSample(NamedTuple):
    """A recorded row; attack_active is 0.0 or 1.0."""
    t_s: float
    pv_kw: float
    pv_available_kw: float
    bss_kw: float
    load_kw: float
    transformer_kw: float
    soc_pct: float
    attack_active: float


# a sample row: ProcessSample's fields in order
ROW = 8
T, PV, PV_AVAILABLE, BSS, LOAD, TRANSFORMER, SOC, ACTIVE = range(ROW)
# native doubles, as array('d') holds them
_SAMPLE_ROW = struct.Struct(f"{ROW}d")


@dataclass(slots=True)
class FlowRecord:
    """A flow's counts; its addresses are its key in ``Capture.flows``."""
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
        self._day_epoch = day_epoch(date)
        self.rows = array("d")  # ROW doubles per recorded step
        # the records not yet spooled; the pcap export is its header, then
        # the first _spooled bytes of _spool, then these
        self.pcap_records = bytearray()
        self._spool = None  # made at the first spill
        self._spooled = 0
        self.frame_count = 0
        self.flows: dict[tuple[str, str, str, str], FlowRecord] = {}
        # (MACs, IPs, ports) -> (netem.tcp_link of it, its flow's record)
        self._links: dict[tuple, tuple[tuple, FlowRecord]] = {}
        self._stamp = (-1, 0.0, 0, 0)  # step, t, pcap sec, pcap usec

    @property
    def samples(self) -> list[ProcessSample]:
        """The recorded steps, made from the rows at each read."""
        return list(map(ProcessSample._make, zip(*[iter(self.rows)] * ROW)))

    # -- recording --------------------------------------------------------

    def _stamp_of(self, step: int) -> tuple[int, float, int, int]:
        t = self.clock.time_s(step)
        ts = self._day_epoch + t
        sec = int(ts)
        usec = round((ts - sec) * 1_000_000)
        if usec == 1_000_000:
            sec, usec = sec + 1, 0
        return step, t, sec, usec

    def _spill(self) -> None:
        """Append the records in memory to the spool file, in one write."""
        if self._spool is None:
            self._spool = tempfile.TemporaryFile()
            weakref.finalize(self, self._spool.close)
        # the first _spooled bytes are whole records; a write that raised
        # may have left a torn part after them, which the next spill
        # overwrites and no export copies
        self._spool.seek(self._spooled)
        self._spool.write(self.pcap_records)
        self._spooled += len(self.pcap_records)
        self.pcap_records.clear()

    def record_frame(self, frame: EthernetFrame, step: int) -> None:
        records = self.pcap_records
        # spill before recording, so a spill that raises leaves this frame
        # out of the pcap, the flows and the frame count alike
        if len(records) >= SPOOL_BYTES:
            self._spill()
        if self._stamp[0] != step:
            self._stamp = self._stamp_of(step)
        _, t, sec, usec = self._stamp
        src_mac, dst_mac, p = frame
        if not isinstance(p, IpDelivery):
            # ARP shows up in the pcap, flows track IP conversations
            records += _ARP_RECORD.pack(
                sec, usec, MIN_FRAME_LEN, MIN_FRAME_LEN,
                eth_header(dst_mac, src_mac, ETH_ARP), p.to_bytes())
            self.frame_count += 1
            return
        src_ip, dst_ip, src_port, dst_port, seq, ack, payload, ip_id = p
        key = (src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port)
        link, rec = self._links.get(key) or (tcp_link(*key), None)
        header = frame_header(link, seq, ack, payload, ip_id)
        n = len(header) + len(payload)
        if n < MIN_FRAME_LEN:
            payload = payload + bytes(MIN_FRAME_LEN - n)
            n = MIN_FRAME_LEN
        # nothing is appended or counted until the record is made
        records += _RECORD_HEADER.pack(sec, usec, n, n)
        records += header
        records += payload
        self.frame_count += 1
        if rec is None:  # links that differ only in ports share a flow
            rec = self.flows.get(key[:4])
            if rec is None:
                rec = self.flows[key[:4]] = FlowRecord(first_ts=t)
            self._links[key] = (link, rec)
        rec.frames += 1
        rec.bytes += n
        rec.last_ts = t

    def record_sample(self, step: int, pv_kw: float, bss_kw: float,
                      load_kw: float, transformer_kw: float,
                      soc_pct: float, pv_available_kw: float) -> None:
        start, end = self._window
        # packed first: a value that is no float raises struct.error
        # before any of the row is stored
        self.rows.frombytes(_SAMPLE_ROW.pack(
            self.clock.time_s(step), pv_kw, pv_available_kw, bss_kw, load_kw,
            transformer_kw, soc_pct, start <= step < end))

    # -- export -----------------------------------------------------------

    def export(self, outdir: str | Path,
               formats: tuple[str, ...] = FORMATS) -> dict[str, Path]:
        for f in formats:
            if f not in FORMATS:
                raise ExportError(f"unsupported export format {f!r}")
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written: dict[str, Path] = {}
        for fmt, name in FILES.items():
            if fmt in formats:
                path = written[fmt] = outdir / name
                # looked up at each call, so a wrapper set on the class is run
                getattr(self, f"_export_{fmt}")(path)
        return written

    def _export_process(self, path: Path) -> None:
        # a chunk at a time: the text of every row at once would outweigh
        # the rows
        rows, size = self.rows, PROCESS_CHUNK * ROW
        with path.open("w") as fh:
            fh.write("t,pv_kw,bss_kw,load_kw,transformer_kw,soc_pct,"
                     "attack_active\n")
            for i in range(0, len(rows), size):
                fh.write("".join([
                    _PROCESS_ROW % (fmt_time(t), pv, bss, load, tr, soc, a)
                    for t, pv, _, bss, load, tr, soc, a
                    in zip(*[iter(rows[i:i + size])] * ROW)]))

    def _export_flows(self, path: Path) -> None:
        lines = ["src_mac,dst_mac,src_ip,dst_ip,frames,bytes,first_ts,last_ts"]
        for key, r in sorted(self.flows.items()):
            lines.append(f"{','.join(key)},{r.frames},{r.bytes},"
                         f"{fmt_time(r.first_ts)},{fmt_time(r.last_ts)}")
        path.write_text("\n".join(lines) + "\n")

    def _export_pcap(self, path: Path) -> None:
        with path.open("wb") as fh:
            fh.write(PCAP_HEADER)
            left = self._spooled
            if left:
                self._spool.seek(0)  # flushes, so no read comes back short
                while left:
                    chunk = self._spool.read(min(left, SPOOL_BYTES))
                    fh.write(chunk)
                    left -= len(chunk)
            fh.write(self.pcap_records)

    def _node_role(self, mac: str, ip: str) -> str:
        entry = self.roles_by_ip.get(ip)
        if entry is None:
            return "unknown"
        role, true_mac = entry
        return role if mac == true_mac else f"spoofed-{role}"

    def _export_graph(self, path: Path) -> None:
        nodes = sorted({node for sm, dm, si, di in self.flows
                        for node in ((sm, si), (dm, di))})
        lines = [f"node {m} {i} {self._node_role(m, i)}" for m, i in nodes]
        for (sm, dm, si, di), r in sorted(self.flows.items()):
            lines.append(f"edge {sm} {si} -> {dm} {di} "
                         f"frames={r.frames} bytes={r.bytes}")
        path.write_text("\n".join(lines) + "\n")

    def _export_summary(self, path: Path) -> None:
        path.write_text(json.dumps(self.summarize(), indent=2,
                                   sort_keys=True) + "\n")

    # -- summary ----------------------------------------------------------

    def summarize(self) -> dict:
        """The run's statistics, from one pass over the rows that holds
        only running totals.  Each sum adds left to right, as
        ``sum_in_order`` does, and each peak keeps the first of equal
        values, as max() and min() do."""
        rows, n, step_s = self.rows, len(self.rows) // ROW, self.clock.step_s
        deadband = self.deadband_kw
        top = bottom = rows[TRANSFORMER] if rows else 0.0
        integral = curtailed = window_integral = window_top = window_bss = 0.0
        within = labeled = 0
        for _, pv, avail, bss, _, p, _, active in zip(*[iter(rows)] * ROW):
            size = abs(p)
            kws = size * step_s
            integral += kws
            if p > top:
                top = p
            if p < bottom:
                bottom = p
            if avail > pv:
                curtailed += (avail - pv) * step_s
            if size <= deadband:
                within += 1
            if active:
                if not labeled or p > window_top:
                    window_top = p
                labeled += 1
                window_integral += kws
                window_bss += bss
        window = None if self.plan is None else {
            "start": fmt_time(self.plan.start_s),
            "end": fmt_time(self.plan.end_s),
            "imbalance_integral_kws": window_integral,
            "labeled_steps": labeled,
            "peak_import_kw": window_top,
            "mean_bss_kw": window_bss / labeled if labeled else 0.0,
        }
        return {
            "steps": n,
            "frames": self.frame_count,
            "flow_count": len(self.flows),
            "imbalance_integral_kws": integral,
            "peak_import_kw": top,
            "peak_export_kw": bottom,
            "pv_curtailed_kwh": curtailed / 3600.0,
            "within_deadband_fraction": within / n if n else 0.0,
            "attack_window": window,
        }
