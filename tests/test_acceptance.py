"""End-to-end acceptance gate for the bundled golden scenarios.

Each test checks one release criterion at its stated tolerance and prints
a single ``[criterion N] ...: PASS/FAIL`` verdict line.
"""

import random

from gridtwin import modbus as mb
from gridtwin.capture import ROW, T, TRANSFORMER
from gridtwin.scenario import build
from tests.helpers import load_golden
from tests.wire import decode_modbus_frame, read_pcap

DEADBAND_KW = 0.1
PERIOD_S = 5
EPS = 1e-9

ATTACK_START_S = 11 * 3600 + 30 * 60   # 11:30:00
ATTACK_END_S = 14 * 3600 + 15 * 60     # 14:15:00

EMS_IP = "192.168.10.10"
PV_IP = "192.168.10.21"
BSS_IP = "192.168.10.22"


def verdict(n: int, title: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {n}] {title}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {n} ({title}) failed: {detail}"


def sim_of(golden_runs, name):
    return golden_runs[name]["sim"]


def integral_abs_transformer(cap, t0: float, t1: float) -> float:
    """∫|transformer_kw| dt in kW·s over [t0, t1), added left to right."""
    rows, step_s = cap.rows, cap.clock.step_s
    total = 0.0
    for t, p in zip(rows[T::ROW], rows[TRANSFORMER::ROW]):
        if t0 <= t < t1:
            total += abs(p) * step_s
    return total


def knot_indices(sim):
    """Per-profile knot step indices, first knot of each profile excluded
    (constant extension before the first knot means no value change there)."""
    epoch, end = sim.config.start_s, sim.config.end_s
    n = int(end - epoch)
    knots = []
    for prof in (sim.grid.load_profile, sim.grid.pv_profile):
        knots.extend(int(t) for t, _ in prof.points[1:] if 0 < t < n)
    return sorted(knots), n


def steady_violations(samples, knots, n, lo=0):
    """Steps outside the deadband later than 2 control periods after the
    preceding knot; also per-knot ripple presence.  Returns (bad, no_ripple)."""
    boundaries = sorted(set(knots + [n]))
    bad, no_ripple = [], []
    for k, nxt in zip(boundaries, boundaries[1:]):
        if k < lo:
            continue
        settle = k + 2 * PERIOD_S
        window = samples[k:min(settle, nxt)]
        if not any(abs(s.transformer_kw) > DEADBAND_KW + EPS for s in window):
            no_ripple.append(k)
        for i in range(settle, nxt):
            if abs(samples[i].transformer_kw) > DEADBAND_KW + EPS:
                bad.append(i)
    return bad, no_ripple


class TestAcceptance:
    def test_1_normal_balancing(self, golden_runs):
        sim = sim_of(golden_runs, "normal")
        samples = sim.capture.samples
        knots, n = knot_indices(sim)
        in_band = sum(1 for s in samples
                      if abs(s.transformer_kw) <= DEADBAND_KW + EPS)
        fraction = in_band / len(samples)
        bad, no_ripple = steady_violations(samples, knots, n)
        ok = fraction >= 0.95 and not bad and not no_ripple
        verdict(1, "normal-scenario balancing", ok,
                f"in-band {100 * fraction:.2f}% (floor 95%), "
                f"{len(bad)} late out-of-band steps, "
                f"{len(no_ripple)} knots without ripple")

    def test_2_attack_window_effects(self, golden_runs):
        sim = sim_of(golden_runs, "attack")
        samples = sim.capture.samples
        epoch = sim.config.start_s
        start = int(ATTACK_START_S - epoch)
        end = int(ATTACK_END_S - epoch)
        landing = start + 2  # injected writes take effect two steps in
        capacity = sim.grid.bss.capacity_kwh
        bss_bad = charged = 0
        pv_bad = balance_bad = 0
        for i in range(landing, end):
            s = samples[i]
            soc_kwh = s.soc_pct * capacity / 100.0
            if soc_kwh < capacity - EPS:
                charged += 1
                if abs(s.bss_kw - 14.0) > 1e-6:
                    bss_bad += 1
                expect = s.load_kw + s.bss_kw - min(s.pv_available_kw, 3.5)
                if s.transformer_kw != expect:
                    balance_bad += 1
            if s.pv_kw > 3.5 + EPS:
                pv_bad += 1
        ok = charged > 0 and bss_bad == 0 and pv_bad == 0 and balance_bad == 0
        verdict(2, "attack-window forced charge / PV limit / balance identity",
                ok, f"{charged} charging steps, {bss_bad} off-14kW, "
                f"{pv_bad} over-limit PV, {balance_bad} balance mismatches")

    def test_3_persistence_flaw(self, golden_runs):
        sim = sim_of(golden_runs, "attack")
        samples = sim.capture.samples
        epoch = sim.config.start_s
        end = int(ATTACK_END_S - epoch)
        knots, n = knot_indices(sim)
        # recovery: criterion-1 behavior from 2 control periods after the stop
        recovered_from = end + 2 * PERIOD_S
        bad = [i for i in range(recovered_from, n)
               if abs(samples[i].transformer_kw) > DEADBAND_KW + EPS
               and not any(k <= i < k + 2 * PERIOD_S for k in knots)]
        # the PV limit is never reset: curtailment continues to bind
        curtailed = limit_bad = 0
        for i in range(end, n):
            avail = samples[i].pv_available_kw
            if avail > 3.5 + EPS:
                curtailed += 1
                if abs(samples[i].pv_kw - 3.5) > EPS:
                    limit_bad += 1
        ok = not bad and curtailed > 0 and limit_bad == 0
        verdict(3, "post-attack recovery with un-reset PV limit", ok,
                f"{len(bad)} unbalanced steps after recovery deadline, "
                f"{curtailed} curtailed steps, {limit_bad} limit violations")

    def test_4_imbalance_ratio(self, golden_runs):
        integrals = {}
        for name in ("normal", "attack"):
            cap = sim_of(golden_runs, name).capture
            integrals[name] = integral_abs_transformer(cap, ATTACK_START_S,
                                                       ATTACK_END_S)
        ratio = integrals["attack"] / integrals["normal"]
        verdict(4, "attack-window imbalance integral ratio", ratio >= 5.0,
                f"{integrals['attack']:.0f} / {integrals['normal']:.0f} kW*s "
                f"= {ratio:.1f}x (floor 5x)")

    def test_5_spoofing_visibility(self, golden_runs):
        def macs_per_ip(sim):
            seen: dict[str, set[str]] = {}
            for src_mac, dst_mac, src_ip, dst_ip in sim.capture.flows:
                seen.setdefault(src_ip, set()).add(src_mac)
                seen.setdefault(dst_ip, set()).add(dst_mac)
            return seen
        atk = macs_per_ip(sim_of(golden_runs, "attack"))
        norm = macs_per_ip(sim_of(golden_runs, "normal"))
        spoofed = len(atk[EMS_IP]) >= 2 and len(atk[PV_IP]) >= 2
        clean = all(len(m) == 1 for m in norm.values())
        star = all(EMS_IP in (k[2], k[3])
                   for k in sim_of(golden_runs, "normal").capture.flows)
        ok = spoofed and clean and star
        verdict(5, "ARP spoofing visible in flow records", ok,
                f"attack run: EMS IP {len(atk[EMS_IP])} MACs, "
                f"PV IP {len(atk[PV_IP])} MACs; normal run "
                f"{'is' if clean and star else 'is NOT'} a clean EMS star")

    def test_6_protocol_fidelity(self, golden_runs):
        rng = random.Random(0xC0DEC)
        mismatches = 0
        for _ in range(10_000):
            adu = mb.ModbusAdu(
                rng.randrange(0x10000), rng.randrange(256),
                rng.randrange(1, 128),
                rng.randbytes(rng.randrange(0, 64)))
            if mb.decode(mb.encode(adu)) != adu:
                mismatches += 1
        count_ok = True
        decoded_total = 0
        for name in ("normal", "attack"):
            g = golden_runs[name]
            _, packets = read_pcap((g["outdir"] / "capture.pcap").read_bytes())
            net = g["sim"].network
            count_ok &= len(packets) == net.delivered + net.flooded
            decoded_total += sum(1 for _, _, f in packets
                                 if decode_modbus_frame(f))
        ok = mismatches == 0 and count_ok and decoded_total > 0
        verdict(6, "Modbus codec fuzz + pcap fidelity", ok,
                f"{mismatches}/10000 round-trip mismatches, frame counts "
                f"{'match' if count_ok else 'differ'}, "
                f"{decoded_total} Modbus frames decoded by external reader")

    def test_7_determinism(self, golden_runs, tmp_path):
        artifacts = ("process.csv", "flows.csv", "capture.pcap")
        diffs = []
        for name in ("normal", "attack"):
            sim = build(load_golden(name))
            sim.run()
            rerun_dir = tmp_path / name
            sim.export(rerun_dir)
            first_dir = golden_runs[name]["outdir"]
            for fname in artifacts:
                if (first_dir / fname).read_bytes() != \
                        (rerun_dir / fname).read_bytes():
                    diffs.append(f"{name}/{fname}")
        verdict(7, "byte-identical repeated runs", not diffs,
                "all artifacts identical" if not diffs else
                f"differs: {', '.join(diffs)}")

    def test_8_physics_invariants(self, golden_runs):
        worst = 0.0
        soc_bad = 0
        for name in ("normal", "attack"):
            sim = sim_of(golden_runs, name)
            capacity = sim.grid.bss.capacity_kwh
            for s in sim.capture.samples:
                worst = max(worst, abs(
                    s.transformer_kw - (s.load_kw + s.bss_kw - s.pv_kw)))
                soc_kwh = s.soc_pct * capacity / 100.0
                if not 0.0 <= soc_kwh <= 22.0:
                    soc_bad += 1
        ok = worst <= 1e-9 and soc_bad == 0
        verdict(8, "conservation and SOC bounds", ok,
                f"worst residual {worst:.2e} kW (cap 1e-9), "
                f"{soc_bad} SOC excursions")

    def test_wall_time_budget(self, golden_runs):
        times = {name: golden_runs[name]["summary"].wall_s
                 for name in ("normal", "attack")}
        ok = all(t < 10.0 for t in times.values())
        print(f"[wall time] normal {times['normal']:.2f}s, "
              f"attack {times['attack']:.2f}s: {'PASS' if ok else 'FAIL'}")
        assert ok, f"golden runs exceeded 10 s budget: {times}"
