"""What perfbench relies on still exists.

perfbench/tracing.py wraps gridtwin's entry points by name and maps
simulator ids and hook qualnames to layer spans; a target it cannot
find is reported as missing rather than failing the benchmark.  These
tests read that file (without changing anything in it) and fail as soon
as a refactor moves one of its targets, so the break shows up here
first.
"""

import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gridtwin.cosim import Scheduler
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.mark.parametrize("attack", [False, True], ids=["normal", "attack"])
def test_traced_iteration_passes_its_own_gate(tmp_path, attack):
    # one traced benchmark iteration on the tiny run, in its own process:
    # its output checks pass, every target and every layer span is found
    # (a run without an attacker has no attack.step), and its exports are
    # the untraced run's bytes, so the wrapped behaviours pass the
    # signals they return through
    cfg = write_tiny_config(tmp_path, attack=attack)
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "iteration.py"), "--config", str(cfg),
         "--workload", "attack" if attack else "normal",
         "--workdir", str(tmp_path / "work"), "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert (result["errors"], result.get("missing"), result.get("steps")) == (
        [], [] if attack else ["attack.step"], 300)
    sim = build(ScenarioConfig.load(cfg))
    sim.run()
    written = sim.export(tmp_path / "untraced")
    assert result["digests"] == {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in written.values()}
