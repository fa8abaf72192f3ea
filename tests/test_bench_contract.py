"""What perfbench relies on still exists.

perfbench/tracing.py wraps gridtwin's entry points by name and maps
simulator ids and hook qualnames to layer spans; a target it cannot
find is reported as missing rather than failing the benchmark.  These
tests read that file (without changing anything in it) and fail as soon
as a refactor moves one of its targets, so the break shows up here
first.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from gridtwin.cosim import Scheduler
from gridtwin.scenario import ScenarioConfig, build
from tests.conftest import write_tiny_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves(tracing):
    targets = [t[:2] for t in (*tracing.SPANS, *tracing.COUNTERS)]
    missing = []
    for target, attr in targets:
        try:
            inspect.getattr_static(tracing._resolve(target), attr)
        except (ImportError, AttributeError):
            missing.append(f"{target}.{attr}")
    assert missing == []


def test_every_simulator_and_hook_has_a_layer(tracing, tmp_path, monkeypatch):
    sims, hooks = [], []
    register, add_hook = Scheduler.register, Scheduler.add_hook

    def recording_register(sched, handle):
        sims.append(handle.id)
        return register(sched, handle)

    def recording_add_hook(sched, fn):
        hooks.append(fn.__qualname__)
        return add_hook(sched, fn)

    monkeypatch.setattr(Scheduler, "register", recording_register)
    monkeypatch.setattr(Scheduler, "add_hook", recording_add_hook)
    build(ScenarioConfig.load(write_tiny_config(tmp_path, attack=True)))
    assert sorted(sims) == sorted(tracing.SIMULATORS)
    assert sorted(hooks) == sorted(tracing.HOOKS)


def test_attack_run_logs_mitm_start_as_the_kind(tmp_path):
    # perfbench's correctness gate reads ev[-1] of Attacker.events
    sim = build(ScenarioConfig.load(write_tiny_config(tmp_path, attack=True)))
    sim.run()
    assert "mitm-start" in [ev[-1] for ev in sim.attacker.events]


def test_every_attribute_perfbench_reads_exists(tmp_path):
    # perfbench/iteration.py and tracing.py read these off a built
    # simulation; an AttributeError there fails every run
    sim = build(ScenarioConfig.load(write_tiny_config(tmp_path, attack=True)))
    missing = [f"{obj}.{attr}" for obj, attrs in (
        ("config", ("start_s", "end_s", "step_s")),
        ("capture", ("samples", "flows")),
        ("grid", ("load_profile", "pv_profile")),
        ("network", ("delivered", "flooded", "dropped")),
        ("ems", ("events",)),
        ("attacker", ("events",)))
        for attr in attrs if not hasattr(getattr(sim, obj), attr)]
    assert missing == []
    # iteration.check iterates the samples and reads these off each one
    sim.run()
    read = [(s.transformer_kw, s.load_kw, s.bss_kw, s.pv_kw, s.soc_pct)
            for s in sim.capture.samples]
    assert len(read) == sim.scheduler.clock.now == 300


def test_micro_replays_find_the_run_bytes_rebuilt(tracing, tmp_path):
    # the benchmark's byte check, on the tiny attack run's capture:
    # build_ipv4_tcp(parse_ipv4_tcp(frame)) == frame and
    # encode(decode(payload)) == payload
    sim = build(ScenarioConfig.load(write_tiny_config(tmp_path, attack=True)))
    summary = sim.run()
    sim.export(tmp_path / "out")
    micro, errors = tracing.micro_replays(tmp_path / "out" / "capture.pcap",
                                          sim, summary.steps)
    assert errors == []
    assert micro["netem.build_ipv4_tcp_ns"] > 0  # frames were replayed
