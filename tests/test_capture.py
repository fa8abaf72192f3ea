import errno
import json
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import combinations, compress
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridtwin import capture
from gridtwin.attack import AttackPlan
from gridtwin.capture import (FILES, FORMATS, Capture, ExportError,
                              ProcessSample, fmt_time)
from gridtwin.cosim import HookError, SimClock
from gridtwin.netem import (ARP_REPLY, ARP_REQUEST, BROADCAST_MAC, ZERO_MAC,
                            ArpMessage, EthernetFrame, IpDelivery)
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config
from tests.wire import (DAY_EPOCH, decode_frame, decode_modbus_frame,
                        encode_frame, read_pcap)


def sample_frame(payload=b"hello"):
    pkt = IpDelivery("192.168.10.1", "192.168.10.2", 40000, 502,
                     1000, 1000, payload, 1)
    return EthernetFrame("02:00:00:00:00:01", "02:00:00:00:00:02", pkt)


def reference_fmt_time(t_s: float) -> str:
    """The f-string formatter: hours, minutes and seconds each divided
    out of the whole seconds."""
    whole, ms = divmod(round(t_s * 1000), 1000)
    h, rem = divmod(whole, 3600)
    m, s = divmod(rem, 60)
    base = f"{h:02d}:{m:02d}:{s:02d}"
    return f"{base}.{ms:03d}" if ms else base


def reference_summarize(cap: Capture) -> dict:
    """The summary from whole columns of the rows, each copied at once."""
    rows, n, step_s = cap.rows, len(cap.samples), cap.clock.step_s
    power = rows[capture.TRANSFORMER::capture.ROW]
    out = {
        "steps": n,
        "frames": cap.frame_count,
        "flow_count": len(cap.flows),
        "imbalance_integral_kws": capture.sum_in_order(
            abs(p) * step_s for p in power),
        "peak_import_kw": max(power, default=0.0),
        "peak_export_kw": min(power, default=0.0),
        "pv_curtailed_kwh": capture.sum_in_order(
            (avail - pv) * step_s
            for pv, avail in zip(rows[capture.PV::capture.ROW],
                                 rows[capture.PV_AVAILABLE::capture.ROW])
            if avail > pv) / 3600.0,
        "within_deadband_fraction": (
            sum(1 for p in power if abs(p) <= cap.deadband_kw) / n
            if n else 0.0),
        "attack_window": None,
    }
    if cap.plan is not None:
        active = rows[capture.ACTIVE::capture.ROW]
        window = list(compress(power, active))
        bss = list(compress(rows[capture.BSS::capture.ROW], active))
        out["attack_window"] = {
            "start": fmt_time(cap.plan.start_s),
            "end": fmt_time(cap.plan.end_s),
            "imbalance_integral_kws": capture.sum_in_order(
                abs(p) * step_s for p in window),
            "labeled_steps": len(window),
            "peak_import_kw": max(window, default=0.0),
            "mean_bss_kw": (capture.sum_in_order(bss) / len(bss)
                            if bss else 0.0),
        }
    return out


# equal values of either sign, and small terms that a compensated sum
# would keep and a left-to-right one drops
KW = st.sampled_from([0.0, -0.0, 0.05, -0.05, 1.5, -2.25, 7.0, 1e-13, 3600.0])


class TestSummarize:
    @given(rows=st.lists(st.tuples(KW, KW, KW, KW, KW), max_size=40),
           window=st.none() | st.tuples(st.integers(0, 40),
                                        st.integers(1, 20)))
    # equal peaks of either sign: the first one's sign is kept, over the
    # run and over the attack window
    @example(rows=[(0.0,) * 4 + (-0.0,), (0.0,) * 5], window=None)
    @example(rows=[(0.0,) * 4 + (-0.0,), (0.0,) * 5], window=(0, 20))
    # a sum of the small terms first, 3e-13, would not be lost against
    # 3600 as each 1e-13 is
    @example(rows=[(0.0, 0.0, kw, 0.0, 0.0) for kw in [3600.0] + [1e-13] * 5],
             window=(0, 20))
    def test_matches_whole_columns(self, rows, window):
        plan = None if window is None else AttackPlan(
            float(window[0]), float(window[0] + window[1]))
        cap = Capture(SimClock(epoch_s=0.0, step_s=0.5), deadband_kw=0.05,
                      plan=plan)
        for step, (pv, avail, bss, load, transformer) in enumerate(rows):
            cap.record_sample(step, pv, bss, load, transformer, 50.0, avail)
        # repr tells -0.0 from 0.0, which summary.json writes apart
        assert repr(cap.summarize()) == repr(reference_summarize(cap))

    def test_holds_a_chunk_not_a_column(self):
        # 60,000 steps, all in the attack window: one column is 480 KB, a
        # chunk of 512 rows' columns 42 KB; running totals need neither
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1,
                      plan=AttackPlan(0.0, 60_000.0))
        for step in range(60_000):
            cap.record_sample(step, 1.0, float(step % 7), 2.0, step % 5 - 2.0,
                              50.0, 3.0)
        tracemalloc.start()
        try:
            summary = cap.summarize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["attack_window"]["labeled_steps"] == 60_000
        assert peak < 8 * 1024


class TestFmtTime:
    @given(st.floats(0.0, 3 * 86400.0, exclude_max=True))
    @example(62.99999999999999)
    @example(0.9996)
    @example(59.9995)
    @example(3599.9995)
    @example(86399.9996)  # 24:00:00
    def test_matches_reference(self, t):
        assert fmt_time(t) == reference_fmt_time(t)

    def test_whole_seconds(self):
        assert fmt_time(9 * 3600 + 15 * 60) == "09:15:00"

    def test_milliseconds(self):
        assert fmt_time(9 * 3600 + 0.25) == "09:00:00.250"

    def test_rounds_into_the_next_second(self):
        # 0.7 s steps: step 90 from midnight lands just below 63 s
        assert fmt_time(62.99999999999999) == "00:01:03"
        assert fmt_time(0.9996) == "00:00:01"


class TestCapture:
    def test_empty_pcap_is_valid(self, tmp_path):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        paths = cap.export(tmp_path, formats=("pcap",))
        header, packets = read_pcap(paths["pcap"].read_bytes())
        assert header == (2, 4, 0, 0, 65535, 1)
        assert packets == []

    def test_frames_round_trip_through_pcap(self, tmp_path):
        cap = Capture(SimClock(epoch_s=9 * 3600), deadband_kw=0.1,
                      date="2021-06-15")
        f = sample_frame()
        cap.record_frame(f, step=0)
        paths = cap.export(tmp_path, formats=("pcap",))
        _, packets = read_pcap(paths["pcap"].read_bytes())
        [(sec, usec, raw)] = packets
        assert raw == encode_frame(*f) and decode_frame(raw) == f
        # the frame lands at 09:00
        assert (sec, usec) == (DAY_EPOCH + 9 * 3600, 0)

    def test_stamp_rounding_up_carries_into_the_next_second(self, tmp_path):
        # 0.9999996 s rounds to 1,000,000 us: the stamp is the next second
        cap = Capture(SimClock(epoch_s=0.9999996), deadband_kw=0.1)
        cap.record_frame(sample_frame(), step=0)
        paths = cap.export(tmp_path, formats=("pcap",))
        _, [(sec, usec, _)] = read_pcap(paths["pcap"].read_bytes())
        assert (sec, usec) == (DAY_EPOCH + 1, 0)

    def test_flows_keyed_by_mac_and_ip(self):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        cap.record_frame(sample_frame(), 0)
        cap.record_frame(sample_frame(), 1)
        spoofed = EthernetFrame("02:00:00:00:00:66", "02:00:00:00:00:02",
                                sample_frame().packet)
        cap.record_frame(spoofed, 2)
        assert len(cap.flows) == 2  # same IPs, different source MAC: new flow

    def test_arp_frames_counted_but_not_flows(self):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        cap.record_frame(EthernetFrame("02:00:00:00:00:01", BROADCAST_MAC,
                                       ArpMessage(ARP_REQUEST,
                                                  "02:00:00:00:00:01",
                                                  "192.168.10.1", ZERO_MAC,
                                                  "192.168.10.2")), 0)
        assert cap.summarize()["frames"] == 1 and cap.flows == {}

    def test_unknown_format_rejected(self, tmp_path):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        with pytest.raises(ExportError):
            cap.export(tmp_path / "x", formats=("process", "xml"))
        assert list(tmp_path.iterdir()) == []  # refused before any is made
        # every subset, given in reverse: exactly its files, in table order,
        # each with the bytes the whole export writes
        cap.record_frame(sample_frame(), 0)
        cap.record_sample(0, 1.0, 2.0, 3.0, 4.0, 50.0, 1.5)
        whole = {fmt: path.read_bytes()
                 for fmt, path in cap.export(tmp_path / "all").items()}
        for n in range(len(FORMATS) + 1):
            for subset in combinations(FORMATS, n):
                out = tmp_path / ("-".join(subset) or "none")
                written = cap.export(out, subset[::-1])
                assert list(written) == list(subset)
                assert written == {fmt: out / FILES[fmt] for fmt in subset}
                assert sorted(p.name for p in out.iterdir()) == \
                    sorted(FILES[fmt] for fmt in subset)
                assert {fmt: path.read_bytes()
                        for fmt, path in written.items()} == \
                    {fmt: whole[fmt] for fmt in subset}

    def test_a_writer_for_each_format(self):
        writers = [name.removeprefix("_export_") for name in dir(Capture)
                   if name.startswith("_export_")]
        assert sorted(writers) == sorted(FORMATS) and FORMATS == tuple(FILES)
        assert len(set(FILES.values())) == len(FILES)

    def test_export_calls_a_writer_set_on_the_class(self, tmp_path,
                                                   monkeypatch):
        # as perfbench's spans wrap them, after the module is imported
        called = []
        for fmt in FORMATS:
            writer = getattr(Capture, f"_export_{fmt}")
            monkeypatch.setattr(Capture, f"_export_{fmt}",
                                lambda self, path, fmt=fmt, writer=writer:
                                called.append(fmt) or writer(self, path))
        Capture(SimClock(epoch_s=0.0), deadband_kw=0.1).export(tmp_path)
        assert called == list(FORMATS)

    def test_attack_labels_follow_window(self):
        for start_s, end_s, labels in (
                (102.0, 104.0, [0, 0, 1, 1, 0, 0]),
                # off the step grid: from the first step at or after each end
                (101.5, 104.5, [0, 0, 1, 1, 1, 0])):
            cap = Capture(SimClock(epoch_s=100.0), deadband_kw=0.1,
                          plan=AttackPlan(start_s, end_s))
            for step in range(6):
                cap.record_sample(step, 0, 0, 0, 0, 50.0, 0)
            assert [int(s.attack_active) for s in cap.samples] == labels

    def test_summary_adds_left_to_right(self):
        # sum() compensates since CPython 3.12: it would give 3600 + 1e-12,
        # and the pinned summary.json digests would depend on the Python
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1,
                      plan=AttackPlan(0.0, 11.0))
        for step, kw in enumerate([3600.0] + [1e-13] * 10):
            cap.record_sample(step, pv_kw=0.0, bss_kw=kw, load_kw=0.0,
                              transformer_kw=0.0, soc_pct=50.0,
                              pv_available_kw=kw)
        summary = cap.summarize()
        assert summary["pv_curtailed_kwh"] == 1.0
        assert summary["attack_window"]["mean_bss_kw"] == 3600.0 / 11

    def test_samples_view_reads_the_recorded_values(self):
        cap = Capture(SimClock(epoch_s=100.0, step_s=0.5), deadband_kw=0.1,
                      plan=AttackPlan(110.0, 120.0))
        recorded = []
        for step in range(60):
            kw = {"pv_kw": step * 0.25, "bss_kw": -step / 3,
                  "load_kw": 5.0 + step / 7, "transformer_kw": step * -0.1,
                  "soc_pct": 50.0 + step / 11, "pv_available_kw": step * 0.3}
            cap.record_sample(step, **kw)
            t = 100.0 + step * 0.5
            recorded.append(ProcessSample(
                t_s=t, attack_active=float(110 <= t < 120), **kw))
        view = cap.samples
        assert len(view) == 60
        assert view[0] == recorded[0] and view[-1] == recorded[-1]
        assert view[-60] == recorded[0] and view[25] == recorded[25]
        assert view[-20:] == recorded[-20:]
        assert view[40:55] == recorded[40:55]
        assert view[::7] == recorded[::7]
        assert list(view) == recorded
        for past_the_end in (60, -61):
            with pytest.raises(IndexError):
                view[past_the_end]


    def test_samples_is_a_list_made_from_the_rows_at_each_read(self):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        for step in range(3):
            cap.record_sample(step, 1.0, 2.0, 3.0, 4.0, 50.0, 5.0)
        assert "samples" not in vars(cap)
        first, second = cap.samples, cap.samples
        assert type(first) is list and first == second
        assert first is not second
        assert first[2] == (2.0, 1.0, 5.0, 2.0, 3.0, 4.0, 50.0, 0.0)

    @pytest.mark.parametrize("bad", [None, "1.5", 10 ** 400],
                             ids=["none", "text", "int-past-double"])
    def test_a_row_that_cannot_be_stored_leaves_no_part_of_it(self, bad):
        # the bad value is the fourth double: a row stored value by value
        # would keep three of it and shift every later row off the grid
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        cap.record_sample(0, 1.0, 2.0, 3.0, 4.0, 50.0, 5.0)
        before = cap.rows.tobytes()
        with pytest.raises(struct.error):
            cap.record_sample(1, 1.0, bad, 3.0, 4.0, 50.0, 5.0)
        assert cap.rows.tobytes() == before
        cap.record_sample(1, 6.0, 7.0, 8.0, 9.0, 60.0, 10.0)
        assert len(cap.rows) == 2 * capture.ROW
        assert cap.samples == [
            ProcessSample(0.0, 1.0, 5.0, 2.0, 3.0, 4.0, 50.0, 0.0),
            ProcessSample(1.0, 6.0, 10.0, 7.0, 8.0, 9.0, 60.0, 0.0)]


NODE_RE = re.compile(r"^node ([0-9a-f:]{17}) (\d+\.\d+\.\d+\.\d+) \S+$")
EDGE_RE = re.compile(r"^edge ([0-9a-f:]{17}) (\d+\.\d+\.\d+\.\d+) -> "
                     r"([0-9a-f:]{17}) (\d+\.\d+\.\d+\.\d+) "
                     r"frames=\d+ bytes=\d+$")


class TestGoldenExports:
    def test_pcap_decodes_as_modbus(self, golden_runs):
        # the reference decoder checks every record whole, ARP ones too
        for name in ("normal", "attack"):
            raw = (golden_runs[name]["outdir"] / "capture.pcap").read_bytes()
            _, packets = read_pcap(raw)
            decoded = [d for _, _, f in packets
                       if (d := decode_modbus_frame(f))]
            assert len(decoded) > 10000
            assert {d["function"] & 0x7F for d in decoded} <= {0x03, 0x06}

    def test_pcap_count_matches_transport_counters(self, golden_runs):
        for name in ("normal", "attack"):
            g = golden_runs[name]
            _, packets = read_pcap((g["outdir"] / "capture.pcap").read_bytes())
            net = g["sim"].network
            assert len(packets) == net.delivered + net.flooded

    def test_flow_graph_grammar(self, golden_runs):
        text = (golden_runs["attack"]["outdir"] / "flowgraph.txt").read_text()
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            assert NODE_RE.match(line) or EDGE_RE.match(line), line

    def test_spoofed_nodes_marked(self, golden_runs):
        text = (golden_runs["attack"]["outdir"] / "flowgraph.txt").read_text()
        assert "spoofed-PV" in text and "spoofed-BSS" in text
        normal = (golden_runs["normal"]["outdir"] / "flowgraph.txt").read_text()
        assert "spoofed-" not in normal

    def test_process_csv_row_count(self, golden_runs):
        for name in ("normal", "attack"):
            rows = (golden_runs[name]["outdir"] / "process.csv") \
                .read_text().strip().splitlines()
            assert len(rows) == 1 + 20700

    def test_attack_labels_only_in_attack_run(self, golden_runs):
        def labels(name):
            rows = (golden_runs[name]["outdir"] / "process.csv") \
                .read_text().strip().splitlines()[1:]
            return {r.rsplit(",", 1)[1] for r in rows}
        assert labels("normal") == {"0"}
        assert labels("attack") == {"0", "1"}


class TestTinyRunConsistency:
    def test_summary_matches_samples(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path)))
        sim.run()
        s = sim.capture.summarize()
        assert s["steps"] == 300
        oracle = sum(abs(x.transformer_kw) for x in sim.capture.samples)
        assert s["imbalance_integral_kws"] == pytest.approx(oracle)

    def test_pcap_is_its_header_then_the_recorded_buffer(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path,
                                                          attack=True)))
        sim.run()
        written = sim.export(tmp_path / "out")
        raw = written["pcap"].read_bytes()
        header, packets = read_pcap(raw)
        assert header == (2, 4, 0, 0, 65535, 1)
        assert sim.capture._spool is None  # below SPOOL_BYTES: never spilled
        assert raw[24:] == sim.capture.pcap_records
        summary = json.loads(written["summary"].read_text())
        net = sim.network
        assert summary["frames"] == len(packets) == net.delivered + net.flooded


MID_ATTACK = 9 * 3600 + 18 * 60  # 09:18:00, inside the tiny attack window


def tiny_attack_exports(tmp_path, until=None):
    """The tiny attack run's five exported files, at until and at the end."""
    tmp_path.mkdir(exist_ok=True)
    sim = build(ScenarioConfig.load(write_tiny_config(tmp_path, attack=True)))
    out = []
    for i, t in enumerate((until, None)):
        sim.run(t)
        written = sim.export(tmp_path / f"out-{i}")
        out.append({k: p.read_bytes() for k, p in written.items()})
    return sim, out


class TestSpool:
    def test_exports_do_not_depend_on_where_spills_fall(self, tmp_path,
                                                        monkeypatch):
        _, want = tiny_attack_exports(tmp_path / "default", MID_ATTACK)
        for limit in (1, 10_000):
            monkeypatch.setattr(capture, "SPOOL_BYTES", limit)
            sim, got = tiny_attack_exports(tmp_path / str(limit), MID_ATTACK)
            assert sim.capture._spooled > 0
            # at most one record past the limit: 16 bytes + a full frame
            assert len(sim.capture.pcap_records) < limit + 16 + 1514
            assert got == want  # mid-run and at the end

    def test_golden_attack_run_holds_a_bounded_tail(self, golden_runs):
        cap = golden_runs["attack"]["sim"].capture
        raw = (golden_runs["attack"]["outdir"] / "capture.pcap").read_bytes()
        _, packets = read_pcap(raw)
        longest = max(16 + len(frame) for _, _, frame in packets)
        assert len(cap.pcap_records) < capture.SPOOL_BYTES + longest
        assert 24 + cap._spooled + len(cap.pcap_records) == len(raw)

    def test_spool_leaves_no_file_behind(self, tmp_path, monkeypatch):
        spool_dir = tmp_path / "spool"
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        monkeypatch.setattr(capture, "SPOOL_BYTES", 10_000)
        sim, _ = tiny_attack_exports(tmp_path)
        assert sim.capture._spooled > 0
        assert list(spool_dir.iterdir()) == []

    def test_dropped_spilled_run_closes_its_spool(self, tmp_path):
        cfg = write_tiny_config(tmp_path, attack=True)
        script = (
            "import gc, sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from gridtwin import capture\n"
            "from gridtwin.scenario import ScenarioConfig, build\n"
            "capture.SPOOL_BYTES = 10_000\n"
            "sim = build(ScenarioConfig.load(sys.argv[1]))\n"
            "sim.run()\n"
            "assert sim.capture._spooled > 0\n"
            "del sim\n"
            "gc.collect()\n"
            "print('dropped')\n")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", script, str(cfg), str(Path(capture.__file__).parents[1])],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "dropped\n"
        assert "ResourceWarning" not in proc.stderr

    def test_frame_the_spill_refused_is_counted_nowhere(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        monkeypatch.setattr(capture, "SPOOL_BYTES", 64)
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path)))
        with pytest.raises(HookError, match="No such file"):
            sim.run()
        net = sim.network
        assert net.delivered + net.flooded == sim.capture.frame_count > 0

    def test_torn_spill_is_left_out_of_the_export(self, tmp_path,
                                                  monkeypatch):
        _, [_, want] = tiny_attack_exports(tmp_path / "clean")
        make_file = tempfile.TemporaryFile

        class DiskFullsOnSecondWrite:
            """A spool whose second write stops halfway, as ENOSPC can."""

            def __init__(self):
                self.file, self.writes = make_file(), 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.file.write(data[:len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.file.write(data)

            def __getattr__(self, name):
                return getattr(self.file, name)

        monkeypatch.setattr(tempfile, "TemporaryFile", DiskFullsOnSecondWrite)
        monkeypatch.setattr(capture, "SPOOL_BYTES", 10_000)
        cfg = write_tiny_config(tmp_path, attack=True)

        def torn_run():
            sim = build(ScenarioConfig.load(cfg))
            with pytest.raises(HookError, match="No space left"):
                sim.run()
            return sim

        sim = torn_run()
        written = sim.export(tmp_path / "out")
        raw = written["pcap"].read_bytes()
        _, packets = read_pcap(raw)
        assert 10_000 < sim.capture._spooled < len(raw) < len(want["pcap"])
        assert raw == want["pcap"][:len(raw)]
        summary = json.loads(written["summary"].read_text())
        assert summary["frames"] == len(packets)

        sim = torn_run()
        sim.run()  # it can go on: the next spill writes over the torn part
        written = sim.export(tmp_path / "resumed")
        _, packets = read_pcap(written["pcap"].read_bytes())
        summary = json.loads(written["summary"].read_text())
        assert summary["frames"] == len(packets) > len(want["pcap"]) // 100
        stamps = [(sec, usec) for sec, usec, _ in packets]
        assert stamps == sorted(stamps)


class TestProcessChunks:
    def test_chunk_size_does_not_change_the_files(self, tmp_path,
                                                  monkeypatch):
        # 0.7 s steps from midnight: most times carry milliseconds, and
        # some, such as 62.99999999999999 s, round into the next second
        path = write_tiny_config(tmp_path, attack=True, clock={
            "start": "00:00:00", "end": "00:05:00", "step_s": 0.7,
            "date": "2021-06-15"})
        cfg = yaml.safe_load(path.read_text())
        cfg["attack"].update(start="00:02:00", end="00:04:00")
        path.write_text(yaml.safe_dump(cfg))
        sim = build(ScenarioConfig.load(path))
        sim.run()
        cap = sim.capture
        formats = ("process", "summary")
        want = {k: p.read_bytes() for k, p in
                cap.export(tmp_path / "default", formats).items()}
        text = want["process"].decode()
        assert len(cap.samples) == 429  # 61 chunks of 7 and 2 rows over
        assert "00:00:00.700," in text and "\n00:01:03," in text
        assert text == "".join(
            ["t,pv_kw,bss_kw,load_kw,transformer_kw,soc_pct,attack_active\n"]
            + [f"{reference_fmt_time(s.t_s)},{s.pv_kw:.6f},{s.bss_kw:.6f},"
               f"{s.load_kw:.6f},{s.transformer_kw:.6f},{s.soc_pct:.6f},"
               f"{'1' if s.attack_active else '0'}\n" for s in cap.samples])
        for chunk in (1, 7):
            monkeypatch.setattr(capture, "PROCESS_CHUNK", chunk)
            written = cap.export(tmp_path / str(chunk), formats)
            assert {k: p.read_bytes() for k, p in written.items()} == want


def recount_flows(packets) -> str:
    """flows.csv as counted from the pcap's IPv4 records alone."""
    flows = {}
    for sec, usec, raw in packets:
        if raw[12:14] != b"\x08\x00":
            continue
        src, dst, (sip, dip, *_) = decode_frame(raw)
        t = sec - DAY_EPOCH + usec / 1e6
        rec = flows.setdefault((src, dst, sip, dip), [0, 0, t, t])
        rec[0] += 1
        rec[1] += len(raw)
        rec[3] = t
    lines = ["src_mac,dst_mac,src_ip,dst_ip,frames,bytes,first_ts,last_ts"]
    lines += [",".join((*key, str(n), str(size), fmt_time(first),
                        fmt_time(last)))
              for key, (n, size, first, last) in sorted(flows.items())]
    return "\n".join(lines) + "\n"


MACS = ["02:00:00:00:00:01", "02:00:00:00:00:02", BROADCAST_MAC]
IPS = ["192.168.10.1", "192.168.10.2"]
# few addresses and ports, so that links repeat and a flow (MACs and IPs)
# is reached over several port pairs
IP_PACKETS = st.builds(
    IpDelivery, st.sampled_from(IPS), st.sampled_from(IPS),
    st.sampled_from([502, 50000]), st.sampled_from([502, 50001]),
    st.integers(0, 2**34), st.integers(0, 2**34),
    st.binary(min_size=1, max_size=300), st.integers(0, 0xFFFF))
ARP_PACKETS = st.builds(ArpMessage, st.sampled_from([ARP_REQUEST, ARP_REPLY]),
                        st.sampled_from(MACS), st.sampled_from(IPS),
                        st.sampled_from(MACS + [ZERO_MAC]),
                        st.sampled_from(IPS))
# frames whose bytes cannot be made: a port or a total length that does
# not fit its 16-bit field, or a MAC that is not hex
BAD_PACKETS = st.one_of(
    st.builds(IpDelivery, st.sampled_from(IPS), st.sampled_from(IPS),
              st.sampled_from([502, 70000]), st.just(70000), st.just(0),
              st.just(0), st.just(b"x"), st.just(0)),
    st.builds(IpDelivery, st.sampled_from(IPS), st.sampled_from(IPS),
              st.sampled_from([502, 50000]), st.sampled_from([502, 50001]),
              st.just(0), st.just(0), st.just(bytes(65_496)), st.just(0)))
FRAMES = st.lists(st.tuples(
    st.one_of(IP_PACKETS, ARP_PACKETS, BAD_PACKETS), st.sampled_from(MACS),
    st.sampled_from(MACS + ["zz:00:00:00:00:01"]),
    st.integers(0, 2)), max_size=40)


class TestRecordFrame:
    """Capture.record_frame makes every frame's record, an IPv4 one from
    its link's cached constants; the record must be what the reference
    encoder makes and decode back to the frame, and the flows must be
    what the pcap counts."""

    @settings(max_examples=150, deadline=None)
    @given(frames=FRAMES)
    # a padded odd payload, seq and ack past 2**32, one flow over two port
    # pairs, a frame whose total length does not fit, on a known link, an
    # ARP frame, and one whose destination MAC is not hex
    @example(frames=[
        (IpDelivery(IPS[0], IPS[1], 502, 50001, 2**32 + 5, 2**34, b"abc",
                    0xFFFF), MACS[0], MACS[1], 0),
        (IpDelivery(IPS[0], IPS[1], 50000, 502, 7, 8, b"abcdefgh", 1),
         MACS[0], MACS[1], 1),
        (IpDelivery(IPS[0], IPS[1], 502, 50001, 0, 0, bytes(65_496), 2),
         MACS[0], MACS[1], 0),
        (ArpMessage(ARP_REPLY, MACS[0], IPS[0], MACS[1], IPS[1]), MACS[0],
         MACS[2], 1),
        (ArpMessage(ARP_REQUEST, MACS[0], IPS[0], ZERO_MAC, IPS[1]), MACS[0],
         "zz:00:00:00:00:01", 0)])
    def test_records_and_flows_match_the_frames(self, tmp_path_factory,
                                                frames):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        step, recorded = 0, []
        for packet, src, dst, advance in frames:
            step += advance
            frame = EthernetFrame(src, dst, packet)
            try:
                want = encode_frame(*frame)
            except (struct.error, ValueError):
                before = (bytes(cap.pcap_records), cap.frame_count,
                          repr(cap.flows))
                with pytest.raises((struct.error, ValueError)):
                    cap.record_frame(frame, step)
                assert (bytes(cap.pcap_records), cap.frame_count,
                        repr(cap.flows)) == before
                continue
            cap.record_frame(frame, step)
            recorded.append((step, frame, want))
        out = tmp_path_factory.mktemp("records")
        written = cap.export(out, ("pcap", "flows"))
        _, packets = read_pcap(written["pcap"].read_bytes())
        assert cap.frame_count == len(packets) == len(recorded)
        for (sec, usec, raw), (step, frame, want) in zip(packets, recorded):
            assert raw == want
            assert (sec, usec) == (DAY_EPOCH + step, 0)
            p = frame.packet
            if isinstance(p, IpDelivery):  # seq and ack are sent mod 2**32
                p = p._replace(seq=p.seq % 2**32, ack=p.ack % 2**32)
            assert decode_frame(raw) == (frame.src_mac, frame.dst_mac, p)
        assert written["flows"].read_text() == recount_flows(packets)

    def test_two_port_pairs_feed_one_flow(self):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        for step, ports in enumerate([(50000, 502), (50001, 502),
                                      (50000, 502)]):
            cap.record_frame(EthernetFrame(
                "02:00:00:00:00:01", "02:00:00:00:00:02",
                IpDelivery("192.168.10.1", "192.168.10.2", *ports, 0, 0,
                           b"abc", 1)), step)
        [rec] = cap.flows.values()
        assert (rec.frames, rec.bytes, rec.first_ts, rec.last_ts) == \
            (3, 180, 0.0, 2.0)

    def test_a_link_whose_first_frame_failed_starts_its_flow_later(self):
        cap = Capture(SimClock(epoch_s=0.0), deadband_kw=0.1)
        frame = sample_frame(bytes(65_496))  # total length above 65,535
        with pytest.raises(struct.error):
            cap.record_frame(frame, 0)
        assert (cap.pcap_records, cap.frame_count, cap.flows) == \
            (bytearray(), 0, {})
        cap.record_frame(sample_frame(), 5)
        [rec] = cap.flows.values()
        assert (rec.frames, rec.first_ts, rec.last_ts) == (1, 5.0, 5.0)
