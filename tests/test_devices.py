"""The field devices as the network sees them.

A probe host is attached to a built tiny scenario and speaks Modbus TCP
to each device over the emulated switch, the way the EMS and the
attacker do.  The EMS polls once at the start and then stays quiet, so
nothing else writes the setpoint registers while the probe does.
"""

import dataclasses
import hashlib

import pytest

from gridtwin import devices as dev
from gridtwin.modbus import (DEVICE_BSS, DEVICE_LOAD, DEVICE_METER, DEVICE_PV,
                             EXC_ILLEGAL_ADDRESS, NO_LIMIT, REG_DEVICE_TYPE,
                             REG_MEAS, REG_SETPOINT, decode, encode,
                             fp_encode, parse_read_response,
                             read_holding_request, write_single_request)
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config

# an EMS period longer than the five-minute run: one poll at step 0
QUIET_EMS = {"period_s": 600.0, "deadband_kw": 0.1}
WARMUP_STEPS = 20        # the EMS's only cycle is over by then
MAX_STEPS = 10           # ARP, request and response fit in far fewer
PROBE_PORT = 49400


def expected_measurements(sim) -> dict[str, list[float]]:
    """What each device's registers from REG_MEAS up should show during
    the next step: the values published in the step just finished."""
    value = sim.scheduler.signals.get
    return {"pv": [value(dev.SIG_PV_OUTPUT, 0.0),
                   value(dev.SIG_PV_AVAILABLE, 0.0)],
            "bss": [value(dev.SIG_BSS_ACTUAL, 0.0),
                    value(dev.SIG_BSS_SOC, 0.0)],
            "load": [value(dev.SIG_LOAD_DEMAND, 0.0)],
            "meter": [value(dev.SIG_TRANSFORMER, 0.0)]}


class Probe:
    def __init__(self, tmp_path):
        self.sim = build(ScenarioConfig.load(
            write_tiny_config(tmp_path, ems=QUIET_EMS)))
        self.host = self.sim.network.attach(
            "probe", mac="02:4d:73:00:00:77", ip="192.168.10.77")
        self._tx = 0x7000
        for _ in range(WARMUP_STEPS):
            self.sim.scheduler.step_all()

    def next_tx(self) -> int:
        self._tx += 1
        return self._tx

    def ask(self, role: str, request):
        """Send one request to a device and step until its response is
        back; the response and the measurements the device showed."""
        self.host.send_ip(self.sim.network.hosts[role].ip, encode(request),
                          src_port=PROBE_PORT)
        for _ in range(MAX_STEPS):
            shown = expected_measurements(self.sim)
            self.sim.scheduler.step_all()
            for d in self.host.receive():
                response = decode(d.payload)
                if response.transaction_id == request.transaction_id:
                    return response, shown
        pytest.fail(f"no response from {role} in {MAX_STEPS} steps")

    def read(self, role: str, addr: int, qty: int = 1):
        response, shown = self.ask(
            role, read_holding_request(self.next_tx(), 1, addr, qty))
        return parse_read_response(response), shown

    def write(self, role: str, addr: int, word: int):
        response, _ = self.ask(
            role, write_single_request(self.next_tx(), 1, addr, word))
        return response


@pytest.fixture
def probe(tmp_path):
    return Probe(tmp_path)


@pytest.mark.parametrize("role,device_type", [
    ("pv", DEVICE_PV), ("bss", DEVICE_BSS), ("load", DEVICE_LOAD),
    ("meter", DEVICE_METER)])
def test_register_0_reads_the_device_type(probe, role, device_type):
    words, _ = probe.read(role, REG_DEVICE_TYPE)
    assert words == [device_type]


@pytest.mark.parametrize("role,count", [
    ("pv", 2), ("bss", 2), ("load", 1), ("meter", 1)])
def test_measurements_show_last_steps_values(probe, role, count):
    for _ in range(3):  # three reads at different grid states
        words, shown = probe.read(role, REG_MEAS, count)
        assert words == [fp_encode(v) for v in shown[role]]
    # one register more than the device shows is an illegal address
    response, _ = probe.ask(role, read_holding_request(
        probe.next_tx(), 1, REG_MEAS, count + 1))
    assert response.is_exception
    assert response.data == bytes([EXC_ILLEGAL_ADDRESS])


def test_bss_soc_register_is_percent(probe):
    words, shown = probe.read("bss", REG_MEAS + 1)
    assert 0 < shown["bss"][1] < 100
    assert words == [fp_encode(shown["bss"][1])]
    assert words != [fp_encode(probe.sim.grid.bss_soc_kwh)]  # not kWh


@pytest.mark.parametrize("role,writes", [
    ("pv", [(fp_encode(3.5), 3.5), (NO_LIMIT, None),
            (fp_encode(0.0), 0.0)]),
    ("bss", [(fp_encode(-4.2), -4.2), (NO_LIMIT, 327.67),
             (fp_encode(6.5), 6.5)])])
def test_setpoint_write_reaches_the_grid(probe, role, writes):
    attr = {"pv": "pv_limit_kw", "bss": "bss_setpoint_kw"}[role]
    for word, want in writes:
        response = probe.write(role, REG_SETPOINT, word)
        assert not response.is_exception
        words, _ = probe.read(role, REG_SETPOINT)
        assert words == [word]
        # the device published the word; the grid applied it since
        assert getattr(probe.sim.grid, attr) == want


def test_pv_setpoint_starts_at_no_limit(probe):
    words, _ = probe.read("pv", REG_SETPOINT)
    assert words == [NO_LIMIT]
    assert probe.sim.grid.pv_limit_kw is None


@pytest.mark.parametrize("role", ["load", "meter"])
def test_no_setpoint_register(probe, role):
    response = probe.write(role, REG_SETPOINT, fp_encode(1.0))
    assert response.is_exception
    assert response.data == bytes([EXC_ILLEGAL_ADDRESS])



def traced_run(monkeypatch, tmp_path, attack, waits):
    """A tiny run with every device step logged as (step, request
    waiting); waits=False clears the devices' waits_on, so the scheduler
    calls them on every step.  Its artifact digests and the logs."""
    handle, calls = dev.ModbusDevice.handle, {}

    def logged(self):
        h = handle(self)
        log, behavior = calls.setdefault(h.id, []), h.behavior

        def step(step, signals):
            log.append((step, bool(self.host.inbox)))
            return behavior(step, signals)
        return dataclasses.replace(h, behavior=step,
                                   waits_on=h.waits_on if waits else None)
    with monkeypatch.context() as m:
        m.setattr(dev.ModbusDevice, "handle", logged)
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path,
                                                          attack=attack)))
    sim.run()
    paths = sim.export(tmp_path / ("woken" if waits else "every"))
    return ({fmt: hashlib.sha256(path.read_bytes()).hexdigest()
             for fmt, path in paths.items()}, calls)


@pytest.mark.parametrize("attack", [False, True])
def test_woken_devices_give_the_every_step_bytes(monkeypatch, tmp_path,
                                                 attack):
    every, every_calls = traced_run(monkeypatch, tmp_path, attack, False)
    woken, woken_calls = traced_run(monkeypatch, tmp_path, attack, True)
    assert len(woken) == 5 and woken == every
    assert sorted(woken_calls) == sorted(every_calls) == [
        "bss", "load", "meter", "pv"]
    for role, log in every_calls.items():
        assert [step for step, _ in log] == list(range(300))
        served = [step for step, waiting in log if waiting]
        assert woken_calls[role] == [(0, False)] + [(s, True) for s in served]


def test_a_device_is_called_on_step_0_and_on_its_served_steps(
        monkeypatch, tmp_path):
    _, calls = traced_run(monkeypatch, tmp_path, False, True)
    # nobody polls the load bank.  The EMS reads the meter, PV and BSS
    # once per 5 s cycle (60 cycles), and its 9 BSS setpoint writes each
    # arrive on a step of their own
    assert {role: len(log) for role, log in calls.items()} == {
        "load": 1, "pv": 1 + 60, "bss": 1 + 60 + 9, "meter": 1 + 60}
    assert calls["load"] == [(0, False)]
