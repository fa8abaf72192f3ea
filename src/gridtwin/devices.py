"""Simulators for the grid physics and the Modbus-speaking field devices.

The grid simulator owns the physical states and replays the demand and
generation profiles.  Each device simulator bridges one network host to
the physics: it refreshes its measurement registers from last step's
signals, answers Modbus requests, and publishes its setpoint register
as a command signal.
"""

from __future__ import annotations

from dataclasses import replace

from .cosim import SimulatorHandle, StepContext
from .grid import (BssState, BusBalance, LoadState, PvState, bus_balance,
                   step_bss, step_pv)
from .modbus import (DEVICE_BSS, DEVICE_LOAD, DEVICE_METER, DEVICE_PV,
                     NO_LIMIT, REG_MEAS, REG_MEAS_AUX, REG_SETPOINT,
                     FrameError, RegisterMap, decode, encode, fp_decode, serve)
from .netem import Host
from .profiles import TimeSeriesProfile, sample

_UNSET = object()

SIG_PV_OUTPUT = "pv.output"
SIG_PV_AVAILABLE = "pv.available"
SIG_PV_LIMIT = "pv.limit_cmd"
SIG_BSS_ACTUAL = "bss.actual"
SIG_BSS_SOC = "bss.soc"
SIG_BSS_SETPOINT = "bss.setpoint_cmd"
SIG_LOAD_DEMAND = "load.demand"
SIG_TRANSFORMER = "bus.transformer"

# role key -> (label in the flow graph and the attacker's role map,
#              Modbus device type in holding register 0; None: no server)
ROLES = {"ems": ("EMS", None), "pv": ("PV", DEVICE_PV),
         "bss": ("BSS", DEVICE_BSS), "load": ("LoadBank", DEVICE_LOAD),
         "meter": ("Meter", DEVICE_METER)}


class GridSimulator:
    """Physics of PV, BSS, load bank and the transformer bus."""

    def __init__(self, pv: PvState, bss: BssState, load: LoadState,
                 load_profile: TimeSeriesProfile, pv_profile: TimeSeriesProfile,
                 step_s: float,
                 transformer_rated_kva: float = BusBalance.transformer_rated_kva):
        self.pv = pv
        self.bss = bss
        self.load = load
        self.load_profile = load_profile
        self.pv_profile = pv_profile
        self.step_s = step_s
        self.transformer_rated_kva = transformer_rated_kva
        self.events: list[tuple[int, str]] = []

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(
            id="grid",
            inputs=(SIG_PV_LIMIT, SIG_BSS_SETPOINT),
            outputs=(SIG_PV_OUTPUT, SIG_PV_AVAILABLE, SIG_BSS_ACTUAL,
                     SIG_BSS_SOC, SIG_LOAD_DEMAND, SIG_TRANSFORMER),
            behavior=self.step)

    def step(self, ctx: StepContext) -> None:
        t_rel = ctx.step * self.step_s  # profile time = seconds since epoch
        available = max(0.0, sample(self.pv_profile, t_rel))
        demand = min(max(0.0, sample(self.load_profile, t_rel)),
                     self.load.rated_kw)
        limit = ctx.get(SIG_PV_LIMIT, _UNSET)
        if limit is not _UNSET:
            self.pv = replace(self.pv, limit_kw=limit)
        setpoint = ctx.get(SIG_BSS_SETPOINT)
        if setpoint is not None:
            self.bss = replace(self.bss, setpoint_kw=setpoint)
        self.pv = step_pv(replace(self.pv, available_kw=available))
        self.bss = step_bss(self.bss, self.step_s)
        self.load = replace(self.load, demand_kw=demand)
        bal = bus_balance(self.load, self.pv, self.bss,
                          self.transformer_rated_kva)
        if bal.over_rating:
            self.events.append((ctx.step, "transformer-over-rating"))
        ctx.publish(SIG_PV_OUTPUT, self.pv.output_kw)
        ctx.publish(SIG_PV_AVAILABLE, self.pv.available_kw)
        ctx.publish(SIG_BSS_ACTUAL, self.bss.actual_kw)
        ctx.publish(SIG_BSS_SOC, self.bss.soc_kwh)
        ctx.publish(SIG_LOAD_DEMAND, self.load.demand_kw)
        ctx.publish(SIG_TRANSFORMER, bal.transformer_kw)


class ModbusDevice:
    """Base: a host plus a register map served without authentication.
    The host's id is its role key, which gives the device type."""

    def __init__(self, host: Host, registers: dict[int, int]):
        self.host = host
        self.regmap = RegisterMap(ROLES[host.id][1], dict(registers))

    def serve_inbox(self) -> None:
        for d in self.host.receive():
            try:
                request = decode(d.payload)
            except FrameError:
                continue
            response = serve(request, self.regmap)
            self.host.send_ip(d.src_ip, encode(response),
                              dst_port=d.src_port, src_port=d.dst_port)

    def handle(self) -> SimulatorHandle:
        raise NotImplementedError


class PvDevice(ModbusDevice):
    def __init__(self, host: Host):
        super().__init__(host, {REG_MEAS: 0, REG_MEAS_AUX: 0,
                                REG_SETPOINT: NO_LIMIT})

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(id=self.host.id,
                               inputs=(SIG_PV_OUTPUT, SIG_PV_AVAILABLE),
                               outputs=(SIG_PV_LIMIT,),
                               behavior=self.step)

    def step(self, ctx: StepContext) -> None:
        self.regmap.set_value(REG_MEAS, ctx.get(SIG_PV_OUTPUT, 0.0))
        self.regmap.set_value(REG_MEAS_AUX, ctx.get(SIG_PV_AVAILABLE, 0.0))
        self.serve_inbox()
        raw = self.regmap.get(REG_SETPOINT)
        ctx.publish(SIG_PV_LIMIT, None if raw == NO_LIMIT else fp_decode(raw))


class BssDevice(ModbusDevice):
    def __init__(self, host: Host, capacity_kwh: float):
        super().__init__(host, {REG_MEAS: 0, REG_MEAS_AUX: 0, REG_SETPOINT: 0})
        self.capacity_kwh = capacity_kwh

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(id=self.host.id,
                               inputs=(SIG_BSS_ACTUAL, SIG_BSS_SOC),
                               outputs=(SIG_BSS_SETPOINT,),
                               behavior=self.step)

    def step(self, ctx: StepContext) -> None:
        self.regmap.set_value(REG_MEAS, ctx.get(SIG_BSS_ACTUAL, 0.0))
        soc_pct = 100.0 * ctx.get(SIG_BSS_SOC, 0.0) / self.capacity_kwh
        self.regmap.set_value(REG_MEAS_AUX, soc_pct)
        self.serve_inbox()
        ctx.publish(SIG_BSS_SETPOINT, fp_decode(self.regmap.get(REG_SETPOINT)))


class LoadDevice(ModbusDevice):
    def __init__(self, host: Host):
        super().__init__(host, {REG_MEAS: 0})

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(id=self.host.id, inputs=(SIG_LOAD_DEMAND,),
                               outputs=(), behavior=self.step)

    def step(self, ctx: StepContext) -> None:
        self.regmap.set_value(REG_MEAS, ctx.get(SIG_LOAD_DEMAND, 0.0))
        self.serve_inbox()


class MeterDevice(ModbusDevice):
    def __init__(self, host: Host):
        super().__init__(host, {REG_MEAS: 0})

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(id=self.host.id, inputs=(SIG_TRANSFORMER,),
                               outputs=(), behavior=self.step)

    def step(self, ctx: StepContext) -> None:
        self.regmap.set_value(REG_MEAS, ctx.get(SIG_TRANSFORMER, 0.0))
        self.serve_inbox()
