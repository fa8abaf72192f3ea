"""Invariants over generated scenarios, not only the two golden ones.

Each example is a random valid tiny scenario: device ratings, load and
PV profiles, EMS policy, step size, and an attack or none.  It must
validate, and a run must conserve power at the bus, keep the SOC in
[0, 100] %, write every transported frame to the pcap, open the attack
window on the first step process.csv labels, and give the same bytes
when run again.
"""

import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings

from gridtwin.scenario import ScenarioConfig, build, validate
from tests.helpers import (RUN_S, merge, profile_csv, scenarios,
                            write_tiny_config)
from tests.wire import read_pcap

RESIDUAL_LIMIT = 1e-9


def small_battery(capacity_kwh: float, initial_soc_pct: float):
    """A scenario in the shape scenarios() draws: 16 kW of PV into an
    empty load, with a 15 kW battery of the given size and charge."""
    devices = {"pv": {"rated_kw": 20.0},
               "bss": {"rated_kw": 15.0, "capacity_kwh": capacity_kwh,
                       "initial_soc_pct": initial_soc_pct,
                       "efficiency": 1.0},
               "load": {"rated_kw": 10.0},
               "meter": {"transformer_rated_kva": 100.0}}
    ems = {"period_s": 1.0, "deadband_kw": 0.1, "manages_pv_limit": False,
           "request_timeout_steps": 4}
    profiles = {which: {"interpolation": "hold"} for which in ("load", "pv")}
    overrides = {"clock": {"step_s": 1.0}, "devices": devices, "ems": ems,
                 "profiles": profiles, "attack": None}
    return overrides, profile_csv([0.0], 60), profile_csv([16.0], 60)


def run_and_export(cfg: ScenarioConfig, outdir: Path):
    sim = build(cfg)
    sim.run()
    return sim, sim.export(outdir)


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios())
# the battery charges to exactly its capacity: 100 * soc / capacity
# gave a published SOC of 100.00000000000001 %
@example(scenario=small_battery(1.570346365528567, 50.0))
# a full start: capacity * 100 / 100 rounded above the capacity and
# aborted the run at step 0
@example(scenario=small_battery(13.125916774101373, 100.0))
def test_generated_scenarios_hold_the_invariants(scenario):
    overrides, load_csv, pv_csv = scenario
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = yaml.safe_load(write_tiny_config(tmp, attack=True).read_text())
        (tmp / "load.csv").write_text(load_csv)
        (tmp / "pv.csv").write_text(pv_csv)
        cfg = ScenarioConfig(raw=merge(base, overrides), base_dir=tmp)
        assert validate(cfg) == []

        sim, written = run_and_export(cfg, tmp / "a")
        samples = sim.capture.samples
        assert len(samples) == round(RUN_S / cfg.step_s)
        for s in samples:
            residual = s.transformer_kw - (s.load_kw + s.bss_kw - s.pv_kw)
            assert abs(residual) <= RESIDUAL_LIMIT
            assert 0.0 <= s.soc_pct <= 100.0
        _, packets = read_pcap(written["pcap"].read_bytes())
        net = sim.network
        assert len(packets) == net.delivered + net.flooded
        assert (sim.attacker is None) == (overrides["attack"] is None)
        # the attacker acts on the window from the first labelled step
        labelled = [i for i, s in enumerate(samples) if s.attack_active]
        acted = [step for step, kind in (sim.attacker.events if sim.attacker
                                         else ())
                 if kind in ("mitm-start", "mitm-aborted-no-ems")]
        assert acted[:1] == labelled[:1]

        _, again = run_and_export(cfg, tmp / "b")
        for fmt, path in written.items():
            assert again[fmt].read_bytes() == path.read_bytes(), fmt
