"""The EMS / DSR-platform control loop.

Every control period the EMS reads the meter and both inverters over
Modbus TCP and nulls the measured transformer power by adjusting the
battery setpoint:

    new_setpoint = previous_setpoint - meter_kw      (|meter| > deadband)

clamped to the battery rating.  By default the EMS never touches the PV
limit register, so a limit planted by an attacker is never cleared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosim import SimClock, SimulatorHandle
from .grid import BssState
from .modbus import (NO_LIMIT, REG_MEAS, REG_SETPOINT,
                     FrameError, decode, encode, fp_decode, fp_encode,
                     parse_read_response, read_holding_request,
                     write_single_request)
from .netem import Host

# one client port per polled device, so each conversation is one TCP flow
PORT_METER = 49152
PORT_PV = 49153
PORT_BSS = 49154


@dataclass(frozen=True)
class ControlPolicy:
    period_s: float = 5.0
    deadband_kw: float = 0.1
    bss_rated_kw: float = BssState.rated_kw  # the default battery's
    manages_pv_limit: bool = False
    request_timeout_steps: int = 5


def control_step(meter_kw: float, prev_setpoint_kw: float,
                 policy: ControlPolicy) -> float | None:
    """New BSS setpoint for one control decision, or None inside the deadband."""
    if abs(meter_kw) <= policy.deadband_kw:
        return None
    new = prev_setpoint_kw - meter_kw
    # max(-rated, min(rated, new)) as comparisons (see grid)
    rated = policy.bss_rated_kw
    new = new if new < rated else rated
    low = -rated
    return new if new > low else low


class EmsController:
    def __init__(self, host: Host, policy: ControlPolicy,
                 meter_ip: str, pv_ip: str, bss_ip: str, clock: SimClock):
        self.host = host
        self.policy = policy
        self.meter_ip = meter_ip
        self.pv_ip = pv_ip
        self.bss_ip = bss_ip
        self.period_steps = clock.steps_for(policy.period_s)
        self.prev_setpoint_kw = 0.0
        self.events: list[tuple[int, str]] = []
        self._txid = 0
        self._outstanding: dict[int, tuple[str, int]] = {}  # txid -> (kind, step)
        self._meter_kw: float | None = None
        self._pv_limit_raw: int | None = None
        self._acted = False

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(id=self.host.id, behavior=self.step)

    def _next_tx(self) -> int:
        self._txid = (self._txid + 1) & 0xFFFF
        return self._txid

    def _send(self, ip: str, adu, src_port: int, kind: str, step: int) -> None:
        self._outstanding[adu.transaction_id] = (kind, step)
        self.host.send_ip(ip, encode(adu), src_port=src_port)

    def step(self, step: int, signals) -> None:
        if self.host.inbox:
            self._collect(step)
        if self._meter_kw is not None and not self._acted:
            self._acted = True
            command = control_step(self._meter_kw, self.prev_setpoint_kw,
                                   self.policy)
            if command is not None:
                word = fp_encode(command)
                self.prev_setpoint_kw = fp_decode(word)
                adu = write_single_request(self._next_tx(), 1, REG_SETPOINT, word)
                self._send(self.bss_ip, adu, PORT_BSS, "bss-write", step)
            if self.policy.manages_pv_limit and self._pv_limit_raw is not None \
                    and self._pv_limit_raw != NO_LIMIT:
                adu = write_single_request(self._next_tx(), 1, REG_SETPOINT,
                                           NO_LIMIT)
                self._send(self.pv_ip, adu, PORT_PV, "pv-clear", step)
                self._pv_limit_raw = None
        if self._outstanding:
            self._expire(step)
        if step % self.period_steps == 0:
            self._start_cycle(step)

    def _start_cycle(self, step: int) -> None:
        self._meter_kw = None
        self._acted = False
        self._send(self.meter_ip,
                   read_holding_request(self._next_tx(), 1, REG_MEAS),
                   PORT_METER, "meter-read", step)
        self._send(self.pv_ip,
                   read_holding_request(self._next_tx(), 1, REG_MEAS),
                   PORT_PV, "pv-read", step)
        if self.policy.manages_pv_limit:
            self._send(self.pv_ip,
                       read_holding_request(self._next_tx(), 1, REG_SETPOINT),
                       PORT_PV, "pv-limit-read", step)
        self._send(self.bss_ip,
                   read_holding_request(self._next_tx(), 1, REG_MEAS, 2),
                   PORT_BSS, "bss-read", step)

    def _collect(self, step: int) -> None:
        for d in self.host.receive():
            try:
                adu = decode(d.payload)
            except FrameError:
                continue
            entry = self._outstanding.pop(adu.transaction_id, None)
            if entry is None:
                continue  # stale or unsolicited
            kind, _ = entry
            if adu.is_exception:
                self.events.append((step, f"{kind}-exception"))
                continue
            try:
                if kind == "meter-read":
                    self._meter_kw = fp_decode(parse_read_response(adu)[0])
                elif kind == "pv-limit-read":
                    self._pv_limit_raw = parse_read_response(adu)[0]
            except FrameError:
                self.events.append((step, f"{kind}-malformed"))

    def _expire(self, step: int) -> None:
        timeout = self.policy.request_timeout_steps
        for tx in [t for t, (_, s) in self._outstanding.items()
                   if step - s >= timeout]:
            kind, _ = self._outstanding.pop(tx)
            self.events.append((step, f"{kind}-timeout"))
