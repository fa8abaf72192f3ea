"""Scenario configuration: loading, validation, and simulation assembly.

A scenario is one YAML file describing the clock, the device fleet with
its MAC/IP plan, the replayed profiles, the EMS policy, an optional
attack plan, and the export formats.  Times are written as clock
strings ("HH:MM:SS"), powers in kW.  Two golden scenarios (normal and
attack) ship with the package under ``gridtwin/data/configs``.

One pass (``_read``) reads, converts and range-checks every field once:
``validate`` returns its issues and ``build`` wires its values.  A key
the YAML leaves unset keeps the default its dataclass declares; a key
the pass never reads is refused as unknown.
"""

from __future__ import annotations

import datetime as _dt
import ipaddress
import math
import re
import reprlib
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import yaml

from . import devices as dev
from .attack import AttackPlan, Attacker
from .capture import Capture, FORMATS, day_epoch
from .cosim import RunSummary, Scheduler, SimClock
from .ems import ControlPolicy, EmsController
from .grid import BssState, LoadState, PvState
from .modbus import FP_MAX, NO_LIMIT, fp_encode
from .netem import MAC_RE, Network
from .profiles import load_profile


class ConfigError(ValueError):
    pass


_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def _text(value) -> str:
    """str(value), refusing a list or mapping by its type first: YAML
    aliases share objects, so the str() of one can grow exponentially."""
    if isinstance(value, (dict, list, set)):
        kind = "mapping" if isinstance(value, dict) else type(value).__name__
        raise TypeError(f"must be a single value, not a {kind}")
    return str(value)


# renders a refused list or mapping in a bounded number of characters
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel, _SHOWN.maxlist, _SHOWN.maxdict, _SHOWN.maxset = 2, 4, 4, 4
# the most characters an issue or a parse error shows, since a refused
# value may be echoed whole in it; PyYAML's own messages, with their
# one-line snippets, stay well under it
_TEXT_MAX = 600


def _cut(text: str) -> str:
    return text if len(text) <= _TEXT_MAX else text[:_TEXT_MAX - 3] + "..."


def parse_time(text: str) -> float:
    """'HH:MM[:SS]' -> seconds since midnight."""
    if isinstance(text, int) and not isinstance(text, bool):
        raise ConfigError(
            f"bad time-of-day {text!r}: quote the time, YAML reads an "
            f"unquoted HH:MM:SS as a base-60 number")
    m = _TIME_RE.match(_text(text).strip())
    if not m:
        raise ConfigError(f"bad time-of-day {text!r} (expected HH:MM[:SS])")
    h, mnt, s = int(m.group(1)), int(m.group(2)), int(m.group(3) or 0)
    if h > 23 or mnt > 59 or s > 59:
        raise ConfigError(f"bad time-of-day {text!r}")
    return h * 3600.0 + mnt * 60.0 + s


def _number(value) -> float:
    """float(value), refusing a boolean: YAML reads yes and true as one."""
    if isinstance(value, bool):
        raise TypeError(f"must be a number, not {value!r}")
    return float(value)


def _whole(value) -> int:
    """A number with no fractional part, as an int."""
    x = _number(value)
    if x % 1:  # also refuses inf and NaN
        raise ValueError(f"must be a whole number, not {value!r}")
    return int(x)


# (conversion, range check, reason) of a number field; NaN fails them all
_FINITE = (_number, math.isfinite, "must be a finite number")
_POSITIVE = (_number, lambda x: 0 < x < math.inf, "must be > 0")
_NON_NEGATIVE = (_number, lambda x: 0 <= x < math.inf, "must be >= 0")


def _word(kw: float) -> int | None:
    """The 0.01 kW register word that shows kw; None if no word holds it."""
    try:
        return fp_encode(kw)
    except (OverflowError, ValueError):  # 1e308 * 100.0 is inf
        return None


class _Keys(dict):
    """A scenario mapping that records which keys are asked for with get:
    a key never asked for is unknown.  get wraps a sub-mapping the first
    time it reads it, so a mapping nobody reads is never walked."""

    def __init__(self, node: dict, path: str = ""):
        super().__init__(node)
        self.path, self.read = path, set()

    def get(self, key, default=None):
        self.read.add(key)
        value = super().get(key, default)
        if type(value) is dict:  # not a _Keys, which is wrapped already
            value = self[key] = _Keys(value, f"{self.path}{key}.")
        return value


class _UniqueKeys:
    """Loader mixin that refuses a key written twice in one mapping,
    naming the line and column of the second.  A key merged in with
    ``<<`` is not written there, so an explicit key may override it."""

    def flatten_mapping(self, node):
        # flattening puts the merged keys into node.value, and a mapping
        # merged into another may be flattened before it is built: so
        # each one is checked at its first flattening, as it was written
        checked = self.__dict__.setdefault("_checked", set())
        if node not in checked:
            checked.add(node)
            seen = set()
            for key_node, _ in node.value:
                tag = key_node.tag
                if tag == "tag:yaml.org,2002:merge":
                    continue
                # a str key is its text: most keys need no constructing
                key = key_node.value if tag == "tag:yaml.org,2002:str" \
                    else self.construct_object(key_node)
                try:
                    fresh = key not in seen
                except TypeError:  # unhashable: construct_mapping refuses it
                    continue
                if not fresh:
                    mark = key_node.start_mark
                    raise yaml.YAMLError(f"line {mark.line + 1}, column "
                                         f"{mark.column + 1}: duplicate key "
                                         f"{_SHOWN.repr(key)}")
                seen.add(key)
        super().flatten_mapping(node)


# PyYAML's libyaml binding, when it ships one, with the duplicate-key
# check.  Its composer recurses in C with no depth limit: with an 8 MiB
# stack (CPython 3.11.7, PyYAML 6.0.3) it loads "a: " + "[" * n + "]" * n
# at n = 24,000 and dies of SIGSEGV at n = 25,000, and flow maps alike.  Every level of nesting takes a byte, so
# a file of at most _LIBYAML_BYTES nests under 4,096 levels, a sixth of
# that.  Its scanner takes tabs that the pure-Python one refuses
# ("step_s: 1.0\t"), so a file holding a tab goes to the pure loader too.
LIBYAML = type("LibyamlLoader", (_UniqueKeys, yaml.CSafeLoader), {}) \
    if hasattr(yaml, "CSafeLoader") else None
_LIBYAML_BYTES = 4096
# The pure loader recurses in Python, one or two frames a level, and stops
# near 490 levels.  Data from libyaml holding more lists and mappings than
# this is parsed again by the pure loader, so nothing downstream ever sees
# data nested deeper than the pure loader builds.
_LIBYAML_CONTAINERS = 256


def _containers(data, limit: int) -> int:
    """How many distinct lists, tuples and mappings data holds, counted
    without recursion and up to limit + 1."""
    seen, todo = set(), [data]
    while todo and len(seen) <= limit:
        node = todo.pop()
        if isinstance(node, (dict, list, tuple)) and id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.values() if isinstance(node, dict) else node)
    return len(seen)


class _Loader(_UniqueKeys, yaml.SafeLoader):
    """The pure-Python safe loader, naming the line and column of a value
    that a tag's constructor refuses."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (yaml.YAMLError, RecursionError):
            raise
        except Exception as exc:
            mark = node.start_mark
            raise yaml.YAMLError(f"line {mark.line + 1}, column "
                                 f"{mark.column + 1}: {exc}") from exc


def _parse(text: bytes):
    """The YAML document in text.  libyaml parses a small file without
    tabs; the pure-Python loader parses the rest, and parses again
    whatever libyaml refuses, so every error is the pure loader's."""
    if LIBYAML is not None and len(text) <= _LIBYAML_BYTES \
            and b"\t" not in text:
        try:
            data = yaml.load(text, Loader=LIBYAML)
        except Exception:  # a tag's constructor may raise anything
            pass
        else:
            if _containers(data, _LIBYAML_CONTAINERS) <= _LIBYAML_CONTAINERS:
                return data
    return yaml.load(text, Loader=_Loader)


@dataclass
class ScenarioConfig:
    raw: dict
    base_dir: Path

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            data = _parse(path.read_bytes())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except RecursionError as exc:  # the pure loader recurses
            raise ConfigError(
                f"cannot parse {path}: nested too deeply") from exc
        except Exception as exc:  # a YAMLError
            raise ConfigError(f"cannot parse {path}: {_cut(str(exc))}") \
                from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        return cls(raw=data, base_dir=path.parent)

    @property
    def name(self) -> str:
        name = self.raw.get("name")
        return "scenario" if name is None else _text(name)

    def _clock(self, key: str, default):
        """A clock key, or its default if it is unset or null; the three
        properties below hold the defaults, and the pass reads them."""
        clock = self.raw.get("clock")
        value = clock.get(key) if isinstance(clock, dict) else None
        return default if value is None else value

    @property
    def start_s(self) -> float:
        return parse_time(self._clock("start", "09:15:00"))

    @property
    def end_s(self) -> float:
        return parse_time(self._clock("end", "15:00:00"))

    @property
    def step_s(self) -> float:
        return _number(self._clock("step_s", 1.0))


def _read(cfg: ScenarioConfig) -> tuple[dict, list[str]]:
    """The one pass over a scenario: every field read, converted and
    range-checked once.  Returns the values ``build`` wires and every
    bad value as a 'path: reason' issue; it never raises."""
    issues: list[str] = []
    cfg = ScenarioConfig(_Keys(cfg.raw), cfg.base_dir)
    sections: list[_Keys] = [cfg.raw]  # mappings whose keys must be read

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
        if isinstance(sub, dict):
            sections.append(sub)
            return sub
        if sub is not None:
            issues.append(f"{path}: must be a mapping, not {_SHOWN.repr(sub)}")
        return {}

    raw = cfg.raw
    # the CLI names the run's output directory by it
    attempt("name", lambda: cfg.name,
            lambda n: n not in ("", ".", "..") and not set(n) & set("/\\\0"),
            "must be a file name: not empty, '.' or '..', and no '/', "
            "'\\' or NUL")
    clock = section(raw, "clock", "clock")
    start = attempt("clock.start", lambda: cfg.start_s)
    end = attempt("clock.end", lambda: cfg.end_s)
    # fmt_time writes times to the millisecond: finer steps would repeat
    # them.  A day then holds at most 8.64e7 steps, well under 2**53.
    step = attempt("clock.step_s", lambda: cfg.step_s,
                   lambda x: 0.001 <= x < math.inf,
                   "must be >= 0.001: the dataset writes times to the "
                   "millisecond")
    run_ok = start is not None and end is not None
    if run_ok and start >= end:
        issues.append("clock: start must precede end")
    sim_clock = (None if start is None or step is None
                 else SimClock(epoch_s=start, step_s=step))

    def steps(path, convert):
        """convert(sim_clock): a duration or a time as a step count; None
        without a clock, or (and an issue) if the quotient overflows."""
        try:
            return None if sim_clock is None else convert(sim_clock)
        except OverflowError:
            issues.append(f"{path}: too many steps of {step:g} s to count")

    # the pcap stamps a frame with day epoch + t in unsigned 32-bit seconds
    capture_kw = fields(clock, "clock", date=(
        lambda d: _dt.date.fromisoformat(_text(d)).isoformat(),
        lambda d: not run_ok or (0 <= day_epoch(d) + start
                                 and day_epoch(d) + end < 2**32),
        "must put the run between 1970-01-01 00:00:00 and 2106-02-07 "
        "06:28:15 UTC, the range of pcap timestamps"))

    net = section(raw, "network", "network")
    net_kw = fields(net, "network",
                    subnet=(lambda n: str(ipaddress.IPv4Network(_text(n))),))
    expiry = get(net, "arp_cache_expiry_s", "network", *_POSITIVE)
    if expiry is not None:  # None: the caches never expire
        net_kw["cache_expiry_steps"] = steps("network.arp_cache_expiry_s",
                                             lambda c: c.steps_for(expiry))
    # sim_clock is None only with a clock issue, and build then stops
    network = Network(sim_clock, **net_kw)
    # no subnet to check the IPs against if the one written was refused
    refused = net.get("subnet") is not None and "subnet" not in net_kw
    if network.subnet.prefixlen < 24:  # the attacker probes every address
        issues.append("network.subnet: must be a /24 or smaller")

    devices = section(raw, "devices", "devices")
    nodes = {role: section(devices, role, f"devices.{role}")
             for role in dev.ROLES}
    attack = (section(raw, "attack", "attack")
              if raw.get("attack") is not None else None)
    endpoints: dict[str, dict] = {}              # host id -> attach kwargs
    seen: dict[str, str] = {}                    # mac or ip -> path
    for role, node in (*nodes.items(), ("attacker", attack)):
        path = "attack" if role == "attacker" else f"devices.{role}"
        if node is None:
            continue
        if not node:
            issues.append(f"{path}: missing section")
            continue
        mac = attempt(f"{path}.mac", lambda: _text(node.get("mac")).lower(),
                      MAC_RE.fullmatch, "invalid MAC")
        ip = attempt(f"{path}.ip",
                     lambda: str(ipaddress.IPv4Address(_text(node.get("ip")))),
                     lambda ip: refused or (ipaddress.IPv4Address(ip)
                                            in network.subnet),
                     f"outside subnet {network.subnet}")
        for kind, value in (("MAC", mac), ("IP", ip)):
            if value in seen:
                issues.append(f"{path}.{kind.lower()}: duplicate {kind} "
                              f"{value} (also {seen[value]})")
            elif value is not None:
                seen[value] = path
        endpoints[role] = dict(mac=mac, ip=ip, promiscuous=role == "attacker")

    profiles = section(raw, "profiles", "profiles")
    prof = {}
    for which in ("load", "pv"):
        path = f"profiles.{which}"
        entry = section(profiles, which, path)
        kw = fields(entry, path, interpolation=(_text,))
        rule = fields(entry, path, factor=_FINITE, clamp_max_kw=_NON_NEGATIVE)
        file = attempt(f"{path}.file", lambda: cfg.base_dir / _text(
            entry.get("file") or f"{which}.csv"))
        found = file and attempt(f"{path}.file", file.is_file)
        if found:
            prof[which] = attempt(path, lambda: load_profile(
                file.read_bytes(), **kw, **rule))
        elif found is not None:  # None: attempt said why
            issues.append(f"{path}.file: {file} " + (
                "is not a file" if file.exists() else "does not exist"))

    pv = PvState(**fields(nodes["pv"], "devices.pv", rated_kw=_POSITIVE))
    bss = BssState(**fields(
        nodes["bss"], "devices.bss", rated_kw=_POSITIVE,
        capacity_kwh=_POSITIVE,
        efficiency=(_number, lambda x: 0 < x <= 1, "must be in (0, 1]"),
        initial_soc_pct=(_number, lambda x: 0 <= x <= 100,
                         "must be in [0, 100]")))
    load = LoadState(**fields(nodes["load"], "devices.load",
                              rated_kw=_POSITIVE))
    grid = dict(pv=pv, bss=bss, load=load,
                load_profile=prof.get("load"), pv_profile=prof.get("pv"),
                **fields(nodes["meter"], "devices.meter",
                         transformer_rated_kva=_POSITIVE))
    # the registers show powers in 0.01 kW words: load demand up to the
    # rating and the scaled profile's peak, PV availability up to the peak
    # (not clamped to the rating), PV output up to both, the BSS up to its
    # rating and the meter up to the larger of load and PV plus the BSS
    peak = {which: max(p.values, default=0.0)
            for which, p in prof.items() if p is not None}
    load_kw = min(load.rated_kw, peak.get("load", 0.0))
    pv_kw = peak.get("pv", 0.0)
    over = [f"{name} {kw:g}" for name, kw in (
        ("load demand up to", load_kw), ("profiles.pv peak", pv_kw),
        ("bss.rated_kw", bss.rated_kw),
        ("meter up to", max(load_kw, min(pv.rated_kw, pv_kw))
         + bss.rated_kw)) if _word(kw) is None]
    if over:
        issues.append(f"devices: above the {FP_MAX} kW a Modbus register "
                      f"holds: {', '.join(over)}")

    ems = section(raw, "ems", "ems")
    policy = ControlPolicy(bss_rated_kw=bss.rated_kw, **fields(
        ems, "ems", period_s=_POSITIVE, deadband_kw=_NON_NEGATIVE,
        manages_pv_limit=(lambda b: b, lambda b: isinstance(b, bool),
                          "must be true or false"),
        request_timeout_steps=(_whole, lambda n: n >= 1, "must be >= 1")))
    if step is not None and policy.period_s < step:
        issues.append("ems.period_s: must be >= clock.step_s")
    steps("ems.period_s", lambda c: c.steps_for(policy.period_s))

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
        if _word(plan.pv_limit_kw) in (None, NO_LIMIT):
            issues.append(f"attack.pv_limit_kw: must round below {FP_MAX} "
                          f"kW, whose register word means no limit")
        if abs(plan.bss_charge_kw) > bss.rated_kw:
            issues.append(f"attack.bss_charge_kw: |{plan.bss_charge_kw}| "
                          f"exceeds BSS rating {bss.rated_kw}")
        if run_ok and not (start <= plan.start_s and plan.end_s <= end):
            issues.append("attack: window must lie within the run window")
        steps("attack.repoison_period_s",
              lambda c: c.steps_for(plan.repoison_period_s))
        planned = steps("attack.recon_lead_s", plan.steps)
        if planned is not None and planned[0] < 0:
            issues.append("attack.recon_lead_s: scan would start before the run")
        if planned is not None and planned[1] >= planned[2]:
            issues.append(f"attack: window holds no step of {step:g} s")

    output = section(raw, "output", "output")
    formats = get(output, "formats", "output", tuple,
                  lambda fs: all(f in FORMATS for f in fs),
                  f"unsupported format (known: {', '.join(FORMATS)})", FORMATS)
    issues.extend(f"{node.path}{key}: unknown key" for node in sections
                  for key in node if key not in node.read)

    return {"clock": sim_clock, "network": network,
            "endpoints": endpoints, "grid": grid, "policy": policy,
            "plan": plan, "capture": capture_kw,
            "formats": formats}, [_cut(issue) for issue in issues]


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
        # never past clock.end: validate checked no step beyond it
        end_s = self.config.end_s
        return self.scheduler.run(
            end_s if until_s is None else min(until_s, end_s),
            realtime=realtime)

    def export(self, outdir: str | Path) -> dict:
        return self.capture.export(outdir, self.formats)


def build(cfg: ScenarioConfig) -> Simulation:
    """Wire up all simulators for a scenario; ConfigError if invalid."""
    v, issues = _read(cfg)
    if issues:
        raise ConfigError("; ".join(issues))

    clock, network, policy, plan = (v["clock"], v["network"], v["policy"],
                                    v["plan"])
    scheduler = Scheduler(clock)
    hosts = {hid: network.attach(hid, **kw)
             for hid, kw in v["endpoints"].items()}
    grid = dev.GridSimulator(**v["grid"], clock=clock)
    ems = EmsController(hosts["ems"], policy, meter_ip=hosts["meter"].ip,
                        pv_ip=hosts["pv"].ip, bss_ip=hosts["bss"].ip,
                        clock=clock)
    attacker = None if plan is None else Attacker(hosts["attacker"], plan,
                                                  clock)

    labels = {key: role.label for key, role in dev.ROLES.items()}
    labels["attacker"] = "Attacker"
    roles_by_ip = {h.ip: (labels[r], h.mac) for r, h in hosts.items()}
    capture = Capture(clock, policy.deadband_kw, plan, roles_by_ip,
                      **v["capture"])
    network.frame_sink = capture.record_frame

    devices = [dev.ModbusDevice(hosts[key]) for key, role in dev.ROLES.items()
               if role.device_type is not None]
    for sim in (grid, *devices, ems, *([] if attacker is None else [attacker])):
        scheduler.register(sim.handle())

    scheduler.add_hook(network.transport)

    # the signals, not the scheduler: no reference cycle.  The grid
    # publishes all six from step 0, before any hook runs.
    signals, record = scheduler.signals, capture.record_sample
    read = itemgetter(dev.SIG_PV_OUTPUT, dev.SIG_BSS_ACTUAL,
                      dev.SIG_LOAD_DEMAND, dev.SIG_TRANSFORMER,
                      dev.SIG_BSS_SOC, dev.SIG_PV_AVAILABLE)

    def sample_hook(step: int) -> None:
        record(step, *read(signals))

    scheduler.add_hook(sample_hook)

    return Simulation(config=cfg, scheduler=scheduler, network=network,
                      capture=capture, grid=grid, ems=ems, attacker=attacker,
                      formats=v["formats"])
