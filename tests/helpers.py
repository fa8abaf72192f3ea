"""Helpers the tests share: the golden scenarios, a tiny scenario on disk,
and the space of random valid tiny scenarios.

A plain module, imported as ``tests.helpers``, so that every test module
gets the same functions; ``conftest.py`` holds the fixtures.
"""

import math

import yaml
from hypothesis import strategies as st

from gridtwin import data_path
from gridtwin.scenario import ScenarioConfig, build

GOLDEN_NAMES = ("normal", "attack")


def load_golden(name: str) -> ScenarioConfig:
    return ScenarioConfig.load(data_path("configs", f"{name}.yaml"))


def run_golden(name: str):
    sim = build(load_golden(name))
    summary = sim.run()
    return sim, summary


TINY_LOAD = "t_s,value_kw\n0,5.0\n60,6.0\n120,5.4\n180,6.2\n240,5.6\n"
TINY_PV = "t_s,value_kw\n0,4.0\n90,4.6\n210,4.1\n"


def write_tiny_config(tmp_path, attack=False, **overrides):
    """A 5-minute scenario on 1-minute profiles, for fast integration tests."""
    (tmp_path / "load.csv").write_text(TINY_LOAD)
    (tmp_path / "pv.csv").write_text(TINY_PV)
    cfg = {
        "name": "tiny-attack" if attack else "tiny",
        "clock": {"start": "09:15:00", "end": "09:20:00", "step_s": 1.0,
                  "date": "2021-06-15"},
        "network": {"subnet": "192.168.10.0/24"},
        "devices": {
            "ems": {"ip": "192.168.10.10", "mac": "02:4d:73:00:00:10"},
            "pv": {"ip": "192.168.10.21", "mac": "02:4d:73:00:00:21",
                   "rated_kw": 36.0},
            "bss": {"ip": "192.168.10.22", "mac": "02:4d:73:00:00:22",
                    "rated_kw": 15.0, "capacity_kwh": 22.0,
                    "initial_soc_pct": 50.0},
            "load": {"ip": "192.168.10.23", "mac": "02:4d:73:00:00:23",
                     "rated_kw": 20.0},
            "meter": {"ip": "192.168.10.30", "mac": "02:4d:73:00:00:30"},
        },
        "profiles": {
            "load": {"file": "load.csv", "interpolation": "hold"},
            "pv": {"file": "pv.csv", "interpolation": "hold"},
        },
        "ems": {"period_s": 5.0, "deadband_kw": 0.1},
        "attack": None,
        "output": {"formats": ["process", "flows", "pcap", "graph", "summary"]},
    }
    if attack:
        cfg["attack"] = {
            "ip": "192.168.10.66", "mac": "02:4d:73:00:00:66",
            "start": "09:17:00", "end": "09:19:00",
            "pv_limit_kw": 3.5, "bss_charge_kw": 14.0,
            "repoison_period_s": 10.0, "recon_lead_s": 30.0,
        }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / ("attack.yaml" if attack else "normal.yaml")
    path.write_text(yaml.safe_dump(cfg))
    return path


def merge(base: dict, overrides: dict) -> dict:
    """base with each override dict merged in, key by key; None replaces."""
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


# -- the scenario space: random valid tiny scenarios -----------------------

RUN_S = 300              # the tiny run: 09:15:00 to 09:20:00
EPOCH_S = 9 * 3600 + 15 * 60


def clock_str(offset_s: int) -> str:
    t = EPOCH_S + offset_s
    return f"{t // 3600:02d}:{t // 60 % 60:02d}:{t % 60:02d}"


def kw(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def profile_csv(values: list[float], spacing_s: int) -> str:
    rows = [f"{k * spacing_s},{v!r}" for k, v in enumerate(values)]
    return "t_s,value_kw\n" + "\n".join(rows) + "\n"


@st.composite
def scenarios(draw):
    """(raw config overrides, load CSV, PV CSV) of one valid tiny scenario."""
    step_s = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    bss_rated = draw(kw(1.0, 30.0))
    devices = {
        "pv": {"rated_kw": draw(kw(1.0, 60.0))},
        "bss": {"rated_kw": bss_rated, "capacity_kwh": draw(kw(0.5, 50.0)),
                "initial_soc_pct": draw(kw(0.0, 100.0)),
                "efficiency": draw(kw(0.5, 1.0))},
        "load": {"rated_kw": draw(kw(1.0, 60.0))},
        "meter": {"transformer_rated_kva": draw(kw(5.0, 200.0))},
    }
    ems = {"period_s": step_s * draw(st.integers(1, 10)),
           "deadband_kw": draw(kw(0.0, 2.0)),
           "manages_pv_limit": draw(st.booleans()),
           "request_timeout_steps": draw(st.integers(1, 8))}
    profiles = {which: {"interpolation": draw(st.sampled_from(["hold",
                                                               "linear"]))}
                for which in ("load", "pv")}
    attack = None
    if draw(st.booleans()):
        lead = draw(st.integers(0, 60))
        start = draw(st.integers(max(lead, 5), RUN_S - 10))
        # a window shorter than a step may hold none, which is refused
        end = draw(st.integers(start + math.ceil(step_s), RUN_S))
        attack = {"start": clock_str(start), "end": clock_str(end),
                  "recon_lead_s": float(lead),
                  "pv_limit_kw": draw(kw(0.0, 40.0)),
                  "bss_charge_kw": draw(kw(-bss_rated, bss_rated)),
                  "repoison_period_s": draw(kw(1.0, 30.0))}
    values = st.lists(kw(-5.0, 70.0), min_size=1, max_size=8)
    spacing = st.integers(1, 120)
    load_csv = profile_csv(draw(values), draw(spacing))
    pv_csv = profile_csv(draw(values), draw(spacing))
    overrides = {"clock": {"step_s": step_s}, "devices": devices, "ems": ems,
                 "profiles": profiles, "attack": attack}
    return overrides, load_csv, pv_csv
