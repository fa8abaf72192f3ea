"""Attacker state machine: scan, role identification, ARP-spoof MITM,
command manipulation.

The attacker sits on the same switch as everyone else.  Ahead of the
attack window it ARP-scans the /24 and identifies device roles by
reading holding register 0 (no authentication required); the EMS, which
runs no Modbus server, is recognized as the host that ARP-resolved the
device addresses (its broadcasts are visible to everyone).

During the window it poisons the EMS's and the inverters' ARP caches,
rewrites intercepted battery setpoint writes to a forced charging
power, injects a PV power limit, and forwards everything else
unmodified so the channel stays alive.  On stop it repairs the caches
but deliberately leaves the PV limit in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosim import SimClock, SimulatorHandle
from .devices import ROLES
from .modbus import (FC_READ_HOLDING, FC_WRITE_SINGLE, REG_DEVICE_TYPE,
                     REG_SETPOINT, FrameError, decode, encode, fp_encode,
                     parse_read_response, parse_write_single,
                     read_holding_request, write_single_request, ModbusAdu)
from .netem import ARP_REPLY, ARP_REQUEST, ArpMessage, Host, IpDelivery

PORT_PROBE = 49300
PORT_INJECT = 49310

# Modbus device type in register 0 -> role label
DEVICE_LABELS = {role.device_type: role.label for role in ROLES.values()
                 if role.device_type is not None}


@dataclass(frozen=True)
class AttackPlan:
    start_s: float              # seconds since midnight
    end_s: float
    pv_limit_kw: float = 3.5
    bss_charge_kw: float = 14.0
    repoison_period_s: float = 10.0
    recon_lead_s: float = 60.0

    def __post_init__(self):
        if self.start_s >= self.end_s:
            raise ValueError("attack start must precede end")
        if self.pv_limit_kw < 0:
            raise ValueError("pv_limit_kw must be >= 0")

    def steps(self, clock: SimClock) -> tuple[int, int, int]:
        """(scan, start, end) steps: the window runs from the first step
        at or after start_s to the last one before end_s, and the ARP scan
        runs recon_lead_s (at least one step) ahead of it."""
        start = clock.step_at(self.start_s)
        return (start - clock.steps_for(self.recon_lead_s), start,
                clock.step_at(self.end_s))


class Attacker:
    def __init__(self, host: Host, plan: AttackPlan, clock: SimClock):
        self.host = host
        self.scan_step, self.start_step, self.end_step = plan.steps(clock)
        self.repoison_steps = clock.steps_for(plan.repoison_period_s)
        # role label -> setpoint (kW) planted on start and forced on rewrite
        self.forced = {"PV": plan.pv_limit_kw, "BSS": plan.bss_charge_kw}
        self.roles: dict[str, str] = {}          # ip -> role label
        self.scan_results: dict[str, str] = {}   # ip -> mac (true bindings)
        self.mitm_active = False
        self.events: list[tuple[int, str]] = []
        self._probes: dict[int, str] = {}        # txid -> probed ip
        self._txid = 0x4000
        self._arp_askers: dict[str, set[str]] = {}  # sender ip -> asked ips
        self._last_poison_step = 0

    def handle(self) -> SimulatorHandle:
        return SimulatorHandle(id=self.host.id, behavior=self.step)

    # -- helpers ----------------------------------------------------------

    def _next_tx(self) -> int:
        self._txid = (self._txid + 1) & 0xFFFF
        return self._txid

    @property
    def ems_ip(self) -> str | None:
        for ip, role in self.roles.items():
            if role == "EMS":
                return ip
        return None

    def _victim_ips(self) -> list[str]:
        return [ip for ip, role in sorted(self.roles.items())
                if role in self.forced]

    # -- per-step behavior ------------------------------------------------

    def step(self, step: int, signals) -> None:
        host = self.host
        # most steps bring nothing: then neither list is swapped
        if host.tap:
            self._observe_broadcasts()
        deliveries = host.receive() if host.inbox else ()
        if step == self.scan_step:
            self.arp_scan()
        elif step == self.scan_step + 3:
            self.identify_roles(step)
        if self.start_step <= step < self.end_step:
            if not self.mitm_active:
                self.start_mitm(step)
            elif step - self._last_poison_step >= self.repoison_steps:
                self._send_bindings(poison=True)
                self._last_poison_step = step
        elif self.mitm_active and step >= self.end_step:
            self.stop_mitm(step)

        for d in deliveries:
            if d.dst_ip == host.ip:
                self._handle_own(d)
            else:
                self._intercept(d)

    def _observe_broadcasts(self) -> None:
        """Passively note who ARP-resolves whom (EMS fingerprint)."""
        for msg in self.host.read_tap():
            if msg.op == ARP_REQUEST and msg.sender_ip != self.host.ip:
                self._arp_askers.setdefault(msg.sender_ip, set()).add(
                    msg.target_ip)

    # -- kill-chain stages ------------------------------------------------

    def arp_scan(self) -> None:
        """Broadcast-probe every address of the /24 in one burst."""
        for ip in self.host.net.subnet.hosts():
            ip = str(ip)
            if ip != self.host.ip:
                self.host.resolve(ip)

    def identify_roles(self, step: int) -> None:
        """Read register 0 of every scan responder; label the EMS from the
        observed ARP-request pattern."""
        self.scan_results = {ip: mac for ip, (mac, _) in
                             sorted(self.host.arp_cache.items())}
        for ip in self.scan_results:
            tx = self._next_tx()
            self._probes[tx] = ip
            adu = read_holding_request(tx, 1, REG_DEVICE_TYPE)
            self.host.send_ip(ip, encode(adu), src_port=PORT_PROBE)
            self.roles.setdefault(ip, "unknown")
        self.events.append((step, "identify-roles"))

    def _handle_own(self, d: IpDelivery) -> None:
        try:
            adu = decode(d.payload)
        except FrameError:
            return
        ip = self._probes.pop(adu.transaction_id, None)
        if ip is None or adu.is_exception:
            return
        if adu.function == FC_READ_HOLDING:
            try:
                dev_type = parse_read_response(adu)[0]
            except FrameError:
                return
            self.roles[ip] = DEVICE_LABELS.get(dev_type, "unknown")
            self._label_ems()

    def _label_ems(self) -> None:
        device_ips = {ip for ip, r in self.roles.items()
                      if r in DEVICE_LABELS.values()}
        if not device_ips:
            return
        for asker, asked in sorted(self._arp_askers.items()):
            if asker in device_ips or asker not in self.scan_results:
                continue
            if len(asked & device_ips) >= 2 and \
                    self.roles.get(asker) in (None, "unknown"):
                self.roles[asker] = "EMS"

    def start_mitm(self, step: int) -> None:
        if self.ems_ip is None:
            self.events.append((step, "mitm-aborted-no-ems"))
            return
        self.mitm_active = True
        self._send_bindings(poison=True)
        self._last_poison_step = step
        # plant the PV limit and the forced BSS charging setpoint directly
        for role, value in self.forced.items():
            ip = next((i for i, r in self.roles.items() if r == role),
                      None)
            if ip is not None:
                adu = write_single_request(self._next_tx(), 1, REG_SETPOINT,
                                           fp_encode(value))
                self.host.send_ip(ip, encode(adu), src_port=PORT_INJECT)
        self.events.append((step, "mitm-start"))

    def _send_bindings(self, poison: bool) -> None:
        """ARP replies telling the EMS where each victim is and each victim
        where the EMS is: at our MAC to poison, at the true MAC to repair."""
        ems_ip = self.ems_ip
        ems_mac = self.scan_results.get(ems_ip)
        for victim_ip in self._victim_ips():
            victim_mac = self.scan_results[victim_ip]
            for ip, mac, to_ip, to_mac in (
                    (victim_ip, victim_mac, ems_ip, ems_mac),
                    (ems_ip, ems_mac, victim_ip, victim_mac)):
                self.host.send_arp(ArpMessage(
                    ARP_REPLY, self.host.mac if poison else mac, ip, to_mac,
                    to_ip), to_mac)

    def manipulate(self, adu: ModbusAdu, dst_ip: str) -> ModbusAdu:
        """Rewrite intercepted setpoint writes; pass everything else."""
        if adu.function != FC_WRITE_SINGLE or adu.is_exception:
            return adu
        try:
            addr, _value = parse_write_single(adu)
        except FrameError:
            return adu
        value = self.forced.get(self.roles.get(dst_ip))
        if addr != REG_SETPOINT or value is None:
            return adu
        return write_single_request(adu.transaction_id,
                                    adu.unit_id, addr, fp_encode(value))

    def _intercept(self, d: IpDelivery) -> None:
        true_mac = self.scan_results.get(d.dst_ip)
        if true_mac is None:
            return
        payload = d.payload
        # only a write-single request can be rewritten: byte 7 is the
        # function code, and anything else goes out as it came undecoded
        if self.mitm_active and len(payload) >= 8 \
                and payload[7] == FC_WRITE_SINGLE:
            try:
                adu = decode(payload)
                rewritten = self.manipulate(adu, d.dst_ip)
                # encode(decode(p)) == p: what is not rewritten goes
                # out as it came, and so does a malformed payload
                if rewritten is not adu:
                    payload = encode(rewritten)
            except FrameError:
                pass
        self.host.forward_ip(d, payload, true_mac)

    def stop_mitm(self, step: int) -> None:
        """Stop poisoning and repair the caches; the PV limit stays."""
        self.mitm_active = False
        self._send_bindings(poison=False)
        self.events.append((step, "mitm-stop"))
