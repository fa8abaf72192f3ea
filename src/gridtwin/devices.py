"""Simulators for the grid physics and the Modbus-speaking field devices.

The grid simulator holds the plant's ratings and the three numbers that
carry from step to step (the PV limit, the BSS setpoint and its state of
charge), and replays the demand and generation profiles.  Each device simulator bridges one network host to
the physics.  It waits on its host: the scheduler calls it on the run's
first step and on steps on which a request is waiting, and then it
refreshes its measurement registers from last step's signals, answers,
and publishes its setpoint register as a command signal.  Only a served
write changes that register, so between those steps the board already
holds the value it would publish.  The role table says which signals
and registers each device has.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .cosim import SimClock, SimulatorHandle
from .grid import (BssState, LoadState, PvState, bss_euler, pv_output,
                   transformer_kw)
from .modbus import (DEVICE_BSS, DEVICE_LOAD, DEVICE_METER, DEVICE_PV,
                     NO_LIMIT, REG_MEAS, REG_SETPOINT, FrameError,
                     RegisterMap, decode, encode, fp_decode, fp_encode, serve)
from .netem import Host
from .profiles import TimeSeriesProfile, sample

SIG_PV_OUTPUT = "pv.output"
SIG_PV_AVAILABLE = "pv.available"
SIG_PV_LIMIT = "pv.limit_cmd"
SIG_BSS_ACTUAL = "bss.actual"
SIG_BSS_SOC = "bss.soc_pct"
SIG_BSS_SETPOINT = "bss.setpoint_cmd"
SIG_LOAD_DEMAND = "load.demand"
SIG_TRANSFORMER = "bus.transformer"


class Role(NamedTuple):
    label: str                      # in the flow graph and the attacker's map
    device_type: int | None         # holding register 0; None: no server
    measures: tuple[str, ...] = ()  # signals shown from REG_MEAS up
    # (signal published from REG_SETPOINT, its initial word); a register
    # that starts at NO_LIMIT publishes NO_LIMIT as None ("no limit")
    setpoint: tuple[str, int] | None = None


# role key (the host id) -> Role
ROLES = {
    "ems": Role("EMS", None),
    "pv": Role("PV", DEVICE_PV, (SIG_PV_OUTPUT, SIG_PV_AVAILABLE),
               (SIG_PV_LIMIT, NO_LIMIT)),
    "bss": Role("BSS", DEVICE_BSS, (SIG_BSS_ACTUAL, SIG_BSS_SOC),
                (SIG_BSS_SETPOINT, 0)),
    "load": Role("LoadBank", DEVICE_LOAD, (SIG_LOAD_DEMAND,)),
    "meter": Role("Meter", DEVICE_METER, (SIG_TRANSFORMER,)),
}


class GridSimulator:
    """Physics of PV, BSS, load bank and the transformer bus."""

    def __init__(self, pv: PvState, bss: BssState, load: LoadState,
                 load_profile: TimeSeriesProfile, pv_profile: TimeSeriesProfile,
                 transformer_rated_kva: float = 630.0, *, clock: SimClock):
        self.pv, self.bss, self.load = pv, bss, load
        self.step_s = clock.step_s
        self.load_profile = load_profile
        self.pv_profile = pv_profile
        self.transformer_rated_kva = transformer_rated_kva
        self.pv_limit_kw: float | None = None  # None: no limit
        self.bss_setpoint_kw = 0.0              # >0 charging, <0 discharging
        # pct / 100 first: capacity * pct / 100 can round above capacity
        self.bss_soc_kwh = bss.capacity_kwh * (bss.initial_soc_pct / 100)
        self.events: list[tuple[int, str]] = []

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(
            id="grid",
            inputs=(SIG_PV_LIMIT, SIG_BSS_SETPOINT),
            outputs=(SIG_PV_OUTPUT, SIG_PV_AVAILABLE, SIG_BSS_ACTUAL,
                     SIG_BSS_SOC, SIG_LOAD_DEMAND, SIG_TRANSFORMER),
            behavior=self.step)

    def step(self, step: int, signals: Mapping) -> dict:
        pv, bss, step_s = self.pv, self.bss, self.step_s
        t_rel = step * step_s  # profile time = seconds since epoch
        # max(0.0, x) and min(x, rated) as comparisons (see grid)
        available = sample(self.pv_profile, t_rel)
        available = available if available > 0.0 else 0.0
        demand = sample(self.load_profile, t_rel)
        demand = demand if demand > 0.0 else 0.0
        rated = self.load.rated_kw
        demand = rated if rated < demand else demand
        # a published None lifts the PV limit; an absent signal keeps both
        self.pv_limit_kw = limit = signals.get(SIG_PV_LIMIT, self.pv_limit_kw)
        setpoint = signals.get(SIG_BSS_SETPOINT)
        if setpoint is not None:
            self.bss_setpoint_kw = setpoint
        pv_kw = pv_output(available, pv.rated_kw, limit)
        bss_kw, soc = bss_euler(self.bss_soc_kwh, self.bss_setpoint_kw,
                                bss.capacity_kwh, bss.rated_kw,
                                bss.efficiency, step_s)
        self.bss_soc_kwh = soc
        grid_kw = transformer_kw(demand, bss_kw, pv_kw)
        if abs(grid_kw) > self.transformer_rated_kva:
            self.events.append((step, "transformer-over-rating"))
        # soc / capacity first: it is <= 1, where 100 * soc can round up
        return {SIG_PV_OUTPUT: pv_kw, SIG_PV_AVAILABLE: available,
                SIG_BSS_ACTUAL: bss_kw,
                SIG_BSS_SOC: 100.0 * (soc / bss.capacity_kwh),
                SIG_LOAD_DEMAND: demand, SIG_TRANSFORMER: grid_kw}


class ModbusDevice:
    """A host plus a register map served without authentication.  The
    host's id is its role key, which gives the registers and signals."""

    def __init__(self, host: Host):
        self.host = host
        self.role = role = ROLES[host.id]
        registers = {REG_MEAS + i: 0 for i in range(len(role.measures))}
        if role.setpoint is not None:
            registers[REG_SETPOINT] = role.setpoint[1]
        self.regmap = RegisterMap(role.device_type, registers)

    def handle(self) -> SimulatorHandle:
        setpoint = self.role.setpoint
        return SimulatorHandle(
            id=self.host.id, inputs=self.role.measures,
            outputs=() if setpoint is None else (setpoint[0],),
            behavior=self.step, waits_on=self.host)

    def step(self, step: int, signals: Mapping) -> dict | None:
        role, regmap, host = self.role, self.regmap, self.host
        for addr, signal in enumerate(role.measures, REG_MEAS):
            regmap.registers[addr] = fp_encode(signals.get(signal, 0.0))
        for d in host.receive():
            try:
                request = decode(d.payload)
            except FrameError:
                continue
            host.send_ip(d.src_ip, encode(serve(request, regmap)),
                         dst_port=d.src_port, src_port=d.dst_port)
        if role.setpoint is not None:
            signal, initial = role.setpoint
            raw = regmap.registers[REG_SETPOINT]
            return {signal:
                    None if raw == NO_LIMIT == initial else fp_decode(raw)}
