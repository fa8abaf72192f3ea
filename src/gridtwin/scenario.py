"""Scenario configuration: loading, validation, and simulation assembly.

A scenario is one YAML file describing the clock, the device fleet with
its MAC/IP plan, the replayed profiles, the EMS policy, an optional
attack plan, and the export formats.  Times are written as clock
strings ("HH:MM:SS"), powers in kW.  Two golden scenarios (normal and
attack) ship with the package under ``gridtwin/data/configs``.

One pass (``_read``) reads, converts and range-checks every field once:
``validate`` returns its issues and ``build`` wires its values.  A key
the YAML leaves unset keeps the default its dataclass declares.
"""

from __future__ import annotations

import datetime as _dt
import ipaddress
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from . import devices as dev
from .attack import AttackPlan, Attacker
from .capture import Capture, FORMATS
from .cosim import RunSummary, Scheduler, SimClock
from .ems import ControlPolicy, EmsController
from .grid import BssState, LoadState, PvState
from .netem import Endpoint, Network
from .profiles import ScalingRule, load_profile, scale


class ConfigError(ValueError):
    pass


_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def parse_time(text: str) -> float:
    """'HH:MM[:SS]' -> seconds since midnight."""
    if isinstance(text, int) and not isinstance(text, bool):
        raise ConfigError(
            f"bad time-of-day {text!r}: quote the time, YAML reads an "
            f"unquoted HH:MM:SS as a base-60 number")
    m = _TIME_RE.match(str(text).strip())
    if not m:
        raise ConfigError(f"bad time-of-day {text!r} (expected HH:MM[:SS])")
    h, mnt, s = int(m.group(1)), int(m.group(2)), int(m.group(3) or 0)
    if h > 23 or mnt > 59 or s > 59:
        raise ConfigError(f"bad time-of-day {text!r}")
    return h * 3600.0 + mnt * 60.0 + s


_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")


# (conversion, range check, reason) of a number field; NaN fails them all
_FINITE = (float, math.isfinite, "must be a finite number")
_POSITIVE = (float, lambda x: 0 < x < math.inf, "must be > 0")
_NON_NEGATIVE = (float, lambda x: 0 <= x < math.inf, "must be >= 0")


@dataclass
class ScenarioConfig:
    raw: dict
    base_dir: Path

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            data = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        return cls(raw=data, base_dir=path.parent)

    @property
    def name(self) -> str:
        return str(self.raw.get("name", "scenario"))

    @property
    def clock(self) -> dict:
        """The clock keys that are set; the three properties below hold
        their defaults, and the pass reads the clock through them."""
        clock = self.raw.get("clock")
        return {k: v for k, v in clock.items() if v is not None} \
            if isinstance(clock, dict) else {}

    @property
    def start_s(self) -> float:
        return parse_time(self.clock.get("start", "09:15:00"))

    @property
    def end_s(self) -> float:
        return parse_time(self.clock.get("end", "15:00:00"))

    @property
    def step_s(self) -> float:
        return float(self.clock.get("step_s", 1.0))


def _read(cfg: ScenarioConfig) -> tuple[dict, list[str]]:
    """The one pass over a scenario: every field read, converted and
    range-checked once.  Returns the values ``build`` wires and every
    bad value as a 'path: reason' issue; it never raises."""
    issues: list[str] = []

    def attempt(path, read, ok=None, reason=""):
        """read(), or None and an issue if it fails or ok() rejects it."""
        try:
            value = read()
        except (ArithmeticError, OSError, TypeError, ValueError) as exc:
            issues.append(f"{path}: {exc}")
            return None
        if ok is not None and not ok(value):
            issues.append(f"{path}: {reason}")
            return None
        return value

    def get(node, key, path, conv, ok=None, reason="", default=None):
        """node[key] through attempt; default if it is unset or null."""
        if node.get(key) is None:
            return default
        return attempt(f"{path}.{key}", lambda: conv(node[key]), ok, reason)

    def fields(node, path, **checks):
        """Dataclass keyword arguments: every key the YAML sets, read by
        get.  Unset and bad keys are left out."""
        return {key: value for key, check in checks.items()
                if (value := get(node, key, path, *check)) is not None}

    def section(node, key, path):
        """node[key] if it is a mapping, else {} (and an issue if set)."""
        sub = node.get(key)
        if sub is None or isinstance(sub, dict):
            return sub or {}
        issues.append(f"{path}: must be a mapping, not {sub!r}")
        return {}

    raw = cfg.raw
    clock = section(raw, "clock", "clock")
    start = attempt("clock.start", lambda: cfg.start_s)
    end = attempt("clock.end", lambda: cfg.end_s)
    step = attempt("clock.step_s", lambda: cfg.step_s, *_POSITIVE[1:])
    run_ok = start is not None and end is not None
    if run_ok and start >= end:
        issues.append("clock: start must precede end")
    capture_kw = fields(clock, "clock", date=(
        lambda d: _dt.date.fromisoformat(str(d)).isoformat(),))

    net = section(raw, "network", "network")
    net_kw = fields(net, "network",
                    subnet=(lambda n: str(ipaddress.IPv4Network(str(n))),))
    expiry = get(net, "arp_cache_expiry_s", "network", *_POSITIVE)
    if expiry is not None and step is not None:
        net_kw["cache_expiry_steps"] = max(1, round(expiry / step))
    network = Network(**net_kw)

    devices = section(raw, "devices", "devices")
    nodes = {role: section(devices, role, f"devices.{role}")
             for role in dev.ROLES}
    attack = (section(raw, "attack", "attack")
              if raw.get("attack") is not None else None)
    endpoints: list[Endpoint] = []
    seen: dict[str, str] = {}                    # mac or ip -> path
    for role, node in (*nodes.items(), ("attacker", attack)):
        path = "attack" if role == "attacker" else f"devices.{role}"
        if node is None:
            continue
        if not node:
            issues.append(f"{path}: missing section")
            continue
        mac = attempt(f"{path}.mac", lambda: str(node.get("mac")).lower(),
                      _MAC_RE.match, "invalid MAC")
        ip = attempt(f"{path}.ip",
                     lambda: str(ipaddress.IPv4Address(str(node.get("ip")))),
                     lambda ip: ipaddress.IPv4Address(ip) in network.subnet,
                     f"outside subnet {network.subnet}")
        for kind, value in (("MAC", mac), ("IP", ip)):
            if value in seen:
                issues.append(f"{path}.{kind.lower()}: duplicate {kind} "
                              f"{value} (also {seen[value]})")
            elif value is not None:
                seen[value] = path
        spy = role == "attacker"
        endpoints.append(Endpoint(id=role, mac=mac, ip=ip, promiscuous=spy,
                                  accept_foreign=spy))

    profiles = section(raw, "profiles", "profiles")
    prof = {}
    for which in ("load", "pv"):
        path = f"profiles.{which}"
        entry = section(profiles, which, path)
        file = cfg.base_dir / str(entry.get("file") or f"{which}.csv")
        kw = fields(entry, path, interpolation=(str,))
        rule = fields(entry, path, factor=_FINITE, clamp_max_kw=_NON_NEGATIVE)
        if attempt(f"{path}.file", file.is_file, bool,
                   f"{file} does not exist"):
            prof[which] = attempt(path, lambda: scale(
                load_profile(file.read_bytes(), **kw), ScalingRule(**rule)))

    pv = PvState(**fields(nodes["pv"], "devices.pv", rated_kw=_POSITIVE))
    bss = BssState(**fields(
        nodes["bss"], "devices.bss", rated_kw=_POSITIVE,
        capacity_kwh=_POSITIVE,
        efficiency=(float, lambda x: 0 < x <= 1, "must be in (0, 1]")))
    soc_pct = get(nodes["bss"], "initial_soc_pct", "devices.bss", float,
                  lambda x: 0 <= x <= 100, "must be in [0, 100]", 50.0)
    if soc_pct is not None:
        bss = replace(bss, soc_kwh=bss.capacity_kwh * soc_pct / 100)
    grid = dict(pv=pv, bss=bss, load=LoadState(**fields(
        nodes["load"], "devices.load", rated_kw=_POSITIVE)),
        load_profile=prof.get("load"), pv_profile=prof.get("pv"),
        **fields(nodes["meter"], "devices.meter",
                 transformer_rated_kva=_POSITIVE))

    ems = section(raw, "ems", "ems")
    policy = ControlPolicy(bss_rated_kw=bss.rated_kw, **fields(
        ems, "ems", period_s=_POSITIVE, deadband_kw=_NON_NEGATIVE,
        manages_pv_limit=(lambda b: b, lambda b: isinstance(b, bool),
                          "must be true or false"),
        request_timeout_steps=(int, lambda n: n >= 1, "must be >= 1")))
    if step is not None and policy.period_s < step:
        issues.append("ems.period_s: must be >= clock.step_s")

    plan = None
    if attack is not None:
        a_start = get(attack, "start", "attack", parse_time,
                      default=parse_time("11:30:00"))
        a_end = get(attack, "end", "attack", parse_time,
                    default=parse_time("14:15:00"))
        kw = fields(attack, "attack", pv_limit_kw=_FINITE,
                    bss_charge_kw=_FINITE, repoison_period_s=_POSITIVE,
                    recon_lead_s=_NON_NEGATIVE)
        if a_start is not None and a_end is not None:
            plan = attempt("attack", lambda: AttackPlan(a_start, a_end, **kw))
    if plan is not None:
        if abs(plan.bss_charge_kw) > bss.rated_kw:
            issues.append(f"attack.bss_charge_kw: |{plan.bss_charge_kw}| "
                          f"exceeds BSS rating {bss.rated_kw}")
        if run_ok and not (start <= plan.start_s and plan.end_s <= end):
            issues.append("attack: window must lie within the run window")
        # the ARP scan runs recon_lead_s (at least one step) ahead
        if run_ok and step is not None and \
                plan.start_s - max(plan.recon_lead_s, step) < start:
            issues.append("attack.recon_lead_s: scan would start before the run")

    output = section(raw, "output", "output")
    formats = get(output, "formats", "output", tuple,
                  lambda fs: all(f in FORMATS for f in fs),
                  f"unsupported format (known: {', '.join(FORMATS)})", FORMATS)

    return {"start": start, "step": step, "network": network,
            "endpoints": endpoints, "grid": grid, "policy": policy,
            "plan": plan, "capture": capture_kw, "formats": formats}, issues


def validate(cfg: ScenarioConfig) -> list[str]:
    """Every problem ``build`` would refuse, as 'path: reason' strings;
    empty if the scenario is valid.  Never raises."""
    return _read(cfg)[1]


@dataclass
class Simulation:
    config: ScenarioConfig
    scheduler: Scheduler
    network: Network
    capture: Capture
    grid: dev.GridSimulator
    ems: EmsController
    attacker: Attacker | None = None
    formats: tuple[str, ...] = FORMATS

    def run(self, until_s: float | None = None,
            realtime: bool = False) -> RunSummary:
        return self.scheduler.run(
            self.config.end_s if until_s is None else until_s,
            realtime=realtime)

    def export(self, outdir: str | Path) -> dict:
        return self.capture.export(outdir, self.formats)


def build(cfg: ScenarioConfig) -> Simulation:
    """Wire up all simulators for a scenario; ConfigError if invalid."""
    v, issues = _read(cfg)
    if issues:
        raise ConfigError("; ".join(issues))

    step_s = v["step"]
    scheduler = Scheduler(SimClock(epoch_s=v["start"], step_s=step_s))
    network, policy, plan = v["network"], v["policy"], v["plan"]
    hosts = {e.id: network.attach(e) for e in v["endpoints"]}
    grid = dev.GridSimulator(step_s=step_s, **v["grid"])
    ems = EmsController(hosts["ems"], policy, meter_ip=hosts["meter"].ip,
                        pv_ip=hosts["pv"].ip, bss_ip=hosts["bss"].ip,
                        step_s=step_s)
    attacker = None if plan is None else Attacker(hosts["attacker"], plan,
                                                  step_s)

    labels = {role: label for role, (label, _) in dev.ROLES.items()}
    labels["attacker"] = "Attacker"
    capture = Capture(
        step_s, v["start"], policy.deadband_kw,
        attack_window=None if plan is None else (plan.start_s, plan.end_s),
        roles_by_ip={h.ip: (labels[r], h.mac) for r, h in hosts.items()},
        **v["capture"])
    network.frame_sink = capture.record_frame

    capacity = grid.bss.capacity_kwh
    for sim in (grid, dev.PvDevice(hosts["pv"]),
                dev.BssDevice(hosts["bss"], capacity),
                dev.LoadDevice(hosts["load"]), dev.MeterDevice(hosts["meter"]),
                ems, *([] if attacker is None else [attacker])):
        scheduler.register(sim.handle())

    scheduler.add_hook(network.transport)

    def sample_hook(step: int) -> None:
        soc_kwh = scheduler.value(dev.SIG_BSS_SOC, 0.0)
        capture.record_sample(
            step,
            pv_kw=scheduler.value(dev.SIG_PV_OUTPUT, 0.0),
            bss_kw=scheduler.value(dev.SIG_BSS_ACTUAL, 0.0),
            load_kw=scheduler.value(dev.SIG_LOAD_DEMAND, 0.0),
            transformer_kw=scheduler.value(dev.SIG_TRANSFORMER, 0.0),
            soc_pct=100.0 * soc_kwh / capacity,
            pv_available_kw=scheduler.value(dev.SIG_PV_AVAILABLE, 0.0))

    scheduler.add_hook(sample_hook)

    return Simulation(config=cfg, scheduler=scheduler, network=network,
                      capture=capture, grid=grid, ems=ems, attacker=attacker,
                      formats=v["formats"])
