import struct

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from gridtwin import modbus as mb
from gridtwin.attack import PORT_PROBE, AttackPlan, Attacker
from gridtwin.cosim import Scheduler, SimClock
from gridtwin.netem import (ARP_REPLY, ARP_REQUEST, ArpMessage, IpDelivery,
                            Network, mac_bytes)
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config
from tests.wire import DAY_EPOCH, read_pcap

IP = {"ems": "192.168.10.10", "pv": "192.168.10.21", "bss": "192.168.10.22",
      "load": "192.168.10.23", "meter": "192.168.10.30"}


@pytest.fixture(scope="module")
def tiny_attack(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny-attack")
    sim = build(ScenarioConfig.load(write_tiny_config(tmp, attack=True)))
    sim.run()
    return sim


def bare_attacker():
    clock = SimClock(epoch_s=0.0)
    net = Network(clock)
    host = net.attach("attacker", mac="02:00:00:00:00:66",
                      ip="192.168.10.66", promiscuous=True)
    atk = Attacker(host, AttackPlan(start_s=100.0, end_s=200.0), clock)
    atk.roles = {IP["pv"]: "PV", IP["bss"]: "BSS",
                 IP["meter"]: "Meter", IP["ems"]: "EMS"}
    return atk


class TestManipulate:
    def test_bss_setpoint_rewritten_to_forced_charge(self):
        atk = bare_attacker()
        req = mb.write_single_request(9, 1, mb.REG_SETPOINT, mb.fp_encode(-6.0))
        out = atk.manipulate(req, IP["bss"])
        addr, value = mb.parse_write_single(out)
        assert (addr, mb.fp_decode(value)) == (mb.REG_SETPOINT, 14.0)
        assert out.transaction_id == 9  # id preserved: stays stealthy

    def test_pv_setpoint_rewritten_to_limit(self):
        atk = bare_attacker()
        req = mb.write_single_request(3, 1, mb.REG_SETPOINT, mb.NO_LIMIT)
        _, value = mb.parse_write_single(atk.manipulate(req, IP["pv"]))
        assert mb.fp_decode(value) == 3.5

    def test_reads_pass_unmodified(self):
        atk = bare_attacker()
        req = mb.read_holding_request(5, 1, mb.REG_MEAS)
        assert atk.manipulate(req, IP["bss"]) is req

    def test_other_registers_pass_unmodified(self):
        atk = bare_attacker()
        req = mb.write_single_request(5, 1, mb.REG_MEAS, 42)
        assert atk.manipulate(req, IP["bss"]) is req

    def test_unknown_destination_passes_unmodified(self):
        atk = bare_attacker()
        req = mb.write_single_request(5, 1, mb.REG_SETPOINT, 0)
        assert atk.manipulate(req, "192.168.10.99") is req


def reference_forward(atk, payload, dst_ip):
    """What _intercept forwarded before it read the function byte: every
    payload decoded and passed through manipulate."""
    try:
        adu = mb.decode(payload)
        rewritten = atk.manipulate(adu, dst_ip)
        return payload if rewritten is adu else mb.encode(rewritten)
    except mb.FrameError:
        return payload


# an MBAP header and function code over drawn data, often malformed
framed = st.builds(
    lambda tx, proto, delta, fc, data: struct.pack(
        ">HHHBB", tx, proto, max(0, 2 + len(data) + delta), 1, fc) + data,
    st.integers(0, 0xFFFF), st.sampled_from([0, 0, 0, 1]),
    st.sampled_from([0, 0, 0, -1, 1]),
    st.sampled_from([mb.FC_READ_HOLDING, mb.FC_WRITE_SINGLE,
                     mb.FC_WRITE_MULTIPLE, 0x83, 0x86, 0x2B]),
    st.binary(max_size=6))
writes = st.builds(
    lambda tx, addr, value: mb.encode(
        mb.write_single_request(tx, 1, addr, value)),
    st.integers(0, 0xFFFF),
    st.sampled_from([mb.REG_SETPOINT, mb.REG_MEAS, mb.REG_DEVICE_TYPE]),
    st.integers(0, 0xFFFF))
reads = st.builds(
    lambda tx, addr, qty: mb.encode(
        mb.read_holding_request(tx, 1, addr, qty)),
    st.integers(0, 0xFFFF), st.integers(0, 30), st.integers(1, 3))
exceptions = st.builds(
    lambda tx, fc, code: mb.encode(
        mb.ModbusAdu(tx, 1, fc | 0x80, bytes([code]))),
    st.integers(0, 0xFFFF),
    st.sampled_from([mb.FC_READ_HOLDING, mb.FC_WRITE_SINGLE]),
    st.integers(1, 4))


class TestIntercept:
    @given(payload=st.one_of(st.binary(max_size=9), framed, writes, reads,
                             exceptions),
           dst=st.sampled_from(["pv", "bss", "meter"]))
    def test_forwards_what_decoding_every_payload_would(self, payload, dst):
        atk = bare_attacker()
        atk.mitm_active = True
        atk.scan_results = {ip: "02:00:00:00:00:01" for ip in IP.values()}
        sent = []
        atk.host.forward_ip = lambda d, out, mac: sent.append(out)
        atk._intercept(IpDelivery(IP["ems"], IP[dst], 49154, mb.MODBUS_PORT,
                                  1000, 0, payload, 1))
        assert sent == [reference_forward(atk, payload, IP[dst])]


# a read response with no data at all, and one whose byte count is 0
EMPTY_READ = bytes.fromhex("0001000000020103")
ZERO_COUNT_READ = bytes.fromhex("000100000003010300")


@pytest.mark.parametrize("payload", [EMPTY_READ, ZERO_COUNT_READ],
                         ids=["no-data", "zero-count"])
def test_malformed_probe_reply_leaves_the_role_unknown(payload):
    atk = bare_attacker()
    atk.roles[IP["load"]] = "unknown"
    atk._probes[1] = IP["load"]
    sched = Scheduler(SimClock(epoch_s=0.0))
    sched.register(atk.handle())
    atk.host.inbox.append(IpDelivery(IP["load"], atk.host.ip, mb.MODBUS_PORT,
                                     PORT_PROBE, 1000, 0, payload, 1))
    sched.step_all()
    assert atk.roles[IP["load"]] == "unknown"
    assert atk._probes == {}


class TestKillChain:
    def test_scan_finds_all_true_bindings(self, tiny_attack):
        atk = tiny_attack.attacker
        assert set(atk.scan_results) == set(IP.values())
        hosts = tiny_attack.network.hosts
        for role, ip in IP.items():
            assert atk.scan_results[ip] == hosts[role].mac

    def test_tap_holds_only_the_arp_messages_seen(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path,
                                                          attack=True)))
        host, tapped = sim.attacker.host, []
        read_tap = host.read_tap

        def recording():
            out = read_tap()
            tapped.extend(out)
            return out
        host.read_tap = recording
        sim.run()
        assert all(type(m) is ArpMessage for m in tapped)
        # the EMS resolving its three peers, then the five scan replies
        assert [(m.op, m.sender_ip, m.target_ip) for m in tapped[:3]] == [
            (ARP_REQUEST, IP["ems"], IP[r]) for r in ("meter", "pv", "bss")]
        assert sorted((m.op, m.sender_ip) for m in tapped[3:]) == sorted(
            (ARP_REPLY, ip) for ip in IP.values())

    def test_roles_identified_including_ems(self, tiny_attack):
        entries = tiny_attack.attacker.roles
        assert entries[IP["pv"]] == "PV"
        assert entries[IP["bss"]] == "BSS"
        assert entries[IP["load"]] == "LoadBank"
        assert entries[IP["meter"]] == "Meter"
        assert entries[IP["ems"]] == "EMS"

    def test_window_forces_charge_and_limit(self, tiny_attack):
        start = tiny_attack.config.start_s
        window = [s for s in tiny_attack.capture.samples
                  if start + 130 <= s.t_s < start + 240]
        assert window
        for s in window:
            if s.soc_pct < 100.0 * (1 - 1e-9):
                assert s.bss_kw == pytest.approx(14.0, abs=1e-6)
            assert s.pv_kw <= 3.5 + 1e-9

    def test_caches_repaired_after_stop(self, tiny_attack):
        hosts = tiny_attack.network.hosts
        ems_cache = hosts["ems"].arp_cache
        for role in ("pv", "bss", "meter"):
            assert ems_cache[IP[role]][0] == hosts[role].mac

    def test_pv_limit_survives_the_attack(self, tiny_attack):
        # the flaw under study: nobody resets the planted limit
        last = tiny_attack.capture.samples[-1]
        assert not last.attack_active
        assert last.pv_kw == pytest.approx(3.5, abs=1e-9)

    def test_control_recovers_after_stop(self, tiny_attack):
        tail = tiny_attack.capture.samples[-20:]
        assert all(abs(s.transformer_kw) <= 0.1 + 1e-9 for s in tail)

    def test_no_ems_timeouts_ever(self, tiny_attack):
        # the MITM round trip must stay under the EMS request timeout
        assert not [e for e in tiny_attack.ems.events if "timeout" in e[1]]

    def test_forwards_what_it_did_not_rewrite_as_it_came(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path,
                                                          attack=True)))
        host = sim.attacker.host
        forward, legs = host.forward_ip, []

        def recording(d, payload, dst_mac):
            legs.append((d.payload, payload))
            forward(d, payload, dst_mac)
        host.forward_ip = recording
        sim.run()
        rewritten = [(a, b) for a, b in legs if b is not a]
        assert rewritten and len(rewritten) < len(legs)
        for came, went in rewritten:
            came, went = mb.decode(came), mb.decode(went)
            assert went.function == mb.FC_WRITE_SINGLE
            assert went.data[:2] == came.data[:2]  # the register address
            assert went.data[2:] != came.data[2:]  # only its value differs
            assert went._replace(data=came.data) == came

    def test_attacker_silent_after_stop(self, tiny_attack, tmp_path):
        atk_mac = mac_bytes(tiny_attack.attacker.host.mac)
        end_t = tiny_attack.config.start_s + 240
        pcap = tiny_attack.export(tmp_path)["pcap"]
        _, packets = read_pcap(pcap.read_bytes())
        late = [t for sec, usec, raw in packets
                if raw[6:12] == atk_mac
                and (t := sec + usec / 1e6 - DAY_EPOCH) > end_t + 2]
        assert late == []

    @pytest.mark.parametrize("step_s, start, end, lead_s", [
        (5.0, "09:17:02", "09:19:02", 30.0),
        (2.0, "09:17:01", "09:19:01", 30.0),
        # 21 s and 84 s are 30 and 120 steps of 0.7 s, up to float rounding
        (0.7, "09:15:21", "09:16:24", 14.0)])
    def test_window_off_the_step_grid_matches_the_labels(
            self, tmp_path, step_s, start, end, lead_s):
        # the window starts at the first step at or after attack.start,
        # both for the attacker and for process.csv's attack_active
        path = write_tiny_config(tmp_path, attack=True)
        raw = yaml.safe_load(path.read_text())
        raw["clock"]["step_s"] = step_s
        raw["attack"].update(start=start, end=end, recon_lead_s=lead_s)
        sim = build(ScenarioConfig(raw=raw, base_dir=tmp_path))
        sim.run()
        labelled = [i for i, s in enumerate(sim.capture.samples)
                    if s.attack_active]
        steps = {kind: step for step, kind in sim.attacker.events}
        assert steps["mitm-start"] == labelled[0]
        assert steps["mitm-stop"] == labelled[-1] + 1

    def test_normal_run_has_no_attacker(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path)))
        assert sim.attacker is None
