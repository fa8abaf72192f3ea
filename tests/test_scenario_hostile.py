"""Hostile scenario files: every one gets issues, never a traceback.

Hostile values replace leaves or subtrees of the tiny attack config,
with the keys it leaves unset written at their defaults, or of the
golden attack config as its file holds it:
None, booleans, infinities, NaN, numbers too big for a float or a
register, bad times, dates and addresses, empty and nested lists and
maps, and lists that share their items as YAML aliases do.  A sweep puts
each value at each key path in turn; a property replaces one to three
paths at once, with values drawn from the list or built at random.
``validate`` must return a list of strings, each under ISSUE_MAX
characters, and ``build`` must succeed when the list is empty.

The defects such a search found are also CLI tests, run in a
subprocess: each must exit 1 with bounded output and no traceback.  A
few drawn cases go through the CLI too: each must exit 0 or 1.
"""

import copy
import datetime
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin import data_path, scenario
from gridtwin.scenario import ConfigError, ScenarioConfig, build, validate
from tests.helpers import write_tiny_config

SRC = Path(scenario.__file__).parents[1]
ISSUE_MAX = 1000
OUTPUT_MAX = 4000


def shared(levels: int, width: int = 6) -> list:
    """A list nested levels deep whose items at each level are one shared
    object, as YAML aliases build it: width ** levels leaves, written in
    a few hundred bytes, that str() would spell out one by one."""
    node = ["x" * 20] * width
    for _ in range(levels - 1):
        node = [node] * width
    return node


HOSTILE_VALUES = [
    None, True, False, 0, -1, 0.0, math.inf, -math.inf, math.nan, 1e308,
    -1e308, 1e-300, 10**30, 2**63, -2**63, 10**400, "", "x",
    "24:00:00", "9:60", "12:00:00.5", 43200, "-1:00",
    "2021-02-30", "1969-12-31", "2106-02-08", "0001-01-01",
    datetime.date(9999, 12, 31), "256.1.1.1", "10.0.0.1", "::1",
    "192.168.10.0/24", "192.168.10.1/24", "10.0.0.0/8",
    "192.168.10.0/33", "02:4d:73:00:00", "02:4D:73:00:00:10",
    [], {}, [[]], {"a": {}}, [{"a": [1]}], {"step_s": 1.0},
    ["process", ["pcap"]],
    shared(5), {f"k{i}": shared(4) for i in range(6)}]
HOSTILE = st.one_of(
    st.sampled_from(HOSTILE_VALUES),
    st.recursive(st.none() | st.booleans() | st.floats() | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=6))


def key_paths(node: dict, prefix: tuple = ()):
    """Every key path of a nested mapping: subtrees and leaves."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def replaced(raw: dict, path: tuple, value) -> None:
    """Put value at path in raw, unless an earlier replacement took away
    the mapping that held it."""
    for key in path[:-1]:
        raw = raw.get(key) if isinstance(raw, dict) else None
    if isinstance(raw, dict):
        raw[path[-1]] = value


# the keys the tiny config leaves unset, each at its default, so that the
# sweep and the property put hostile values there too
DEFAULTS = {
    ("network", "arp_cache_expiry_s"): None,
    ("devices", "bss", "efficiency"): 1.0,
    ("devices", "meter", "transformer_rated_kva"): 630.0,
    ("profiles", "load", "factor"): 1.0,
    ("profiles", "load", "clamp_max_kw"): None,
    ("profiles", "pv", "factor"): 1.0,
    ("profiles", "pv", "clamp_max_kw"): None,
    ("ems", "manages_pv_limit"): False,
    ("ems", "request_timeout_steps"): 5,
}
with tempfile.TemporaryDirectory() as _tmp:
    TINY = yaml.safe_load(write_tiny_config(Path(_tmp), attack=True)
                          .read_text())
for _path, _value in DEFAULTS.items():
    replaced(TINY, _path, _value)
PATHS = list(key_paths(TINY))
GOLDEN_FILE = Path(data_path("configs", "attack.yaml"))
GOLDEN = yaml.safe_load(GOLDEN_FILE.read_text())
GOLDEN_PATHS = list(key_paths(GOLDEN))


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """A directory holding the tiny config's profile files."""
    return write_tiny_config(tmp_path_factory.mktemp("hostile"),
                             attack=True).parent


def assert_answered(raw: dict, base_dir: Path) -> None:
    cfg = ScenarioConfig(raw, base_dir)
    issues = validate(cfg)
    assert isinstance(issues, list)
    assert all(isinstance(issue, str) for issue in issues)
    assert all(len(issue) < ISSUE_MAX for issue in issues), \
        max(issues, key=len)[:300]
    if not issues:
        build(cfg)


@pytest.mark.parametrize("path", PATHS, ids=".".join)
def test_each_hostile_value_at_each_path(base_dir, path):
    for value in HOSTILE_VALUES:
        raw = copy.deepcopy(TINY)
        replaced(raw, path, value)
        assert_answered(raw, base_dir)


def draw_hostile(data, base: dict, paths: list) -> dict:
    """A copy of base with hostile values at one to three of its paths."""
    raw = copy.deepcopy(base)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                   max_size=3, unique=True)):
        replaced(raw, path, data.draw(HOSTILE))
    return raw


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hostile_values_at_one_to_three_paths(base_dir, data):
    assert_answered(draw_hostile(data, TINY, PATHS), base_dir)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_values_at_one_to_three_paths_of_the_golden_config(data):
    assert_answered(draw_hostile(data, GOLDEN, GOLDEN_PATHS),
                    GOLDEN_FILE.parent)


def absolute_files(raw: dict, base_dir: Path) -> dict:
    """A copy of raw whose profile files are named by absolute paths."""
    raw = copy.deepcopy(raw)
    for profile in raw["profiles"].values():
        profile["file"] = str((base_dir / profile["file"]).resolve())
    return raw


@settings(max_examples=5, deadline=None)
@given(data=st.data(), golden=st.booleans())
def test_hostile_values_through_the_cli(base_dir, data, golden):
    base = (absolute_files(GOLDEN, GOLDEN_FILE.parent) if golden
            else absolute_files(TINY, base_dir))
    raw = draw_hostile(data, base, GOLDEN_PATHS if golden else PATHS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hostile.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert_refused("validate", path, codes=(0, 1))


def assert_refused(*args, codes=(1,)) -> str:
    """Run the CLI with args: exit 1 (or a code in codes), no traceback,
    bounded output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "gridtwin.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60)
    out = proc.stdout + proc.stderr
    assert proc.returncode in codes, out[-500:]
    assert "Traceback" not in out
    assert len(out) < OUTPUT_MAX, out[:500]
    return out


TAGGED = {
    "float": (b"clock: {step_s: !!float x}\n",
              "line 1, column 17: could not convert string to float: 'x'"),
    "int": (b"clock: {step_s: !!int x}\n",
            "line 1, column 17: invalid literal for int() with base 10: 'x'"),
    "timestamp": (b"clock: {date: !!timestamp x}\n",
                  "line 1, column 15: "
                  "'NoneType' object has no attribute 'groupdict'"),
    "month": (b"name: tiny\nclock:\n  start: '09:00:00'\n"
              b"  date: !!timestamp 2021-13-01\n",
              "line 4, column 9: month must be in 1..12"),
}


@pytest.mark.parametrize("text, why", TAGGED.values(), ids=TAGGED)
def test_tag_a_constructor_refuses_is_a_parse_error(tmp_path, text, why):
    path = tmp_path / "tagged.yaml"
    path.write_bytes(text)
    assert assert_refused("validate", path) == \
        f"error: cannot parse {path}: {why}\n"


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("text, why", TAGGED.values(), ids=TAGGED)
def test_tag_error_text_is_the_same_under_both_loaders(
        tmp_path, monkeypatch, libyaml, text, why):
    if not libyaml:
        monkeypatch.setattr(scenario, "LIBYAML", None)
    path = tmp_path / "tagged.yaml"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.load(path)
    assert str(err.value) == f"cannot parse {path}: {why}"


LONG = {
    "subnet": ("network: {subnet: %s}\n",
               "error: network.subnet: Expected 4 octets in 'yyy"),
    "tagged": ("clock: {step_s: !!float %s}\n",
               "error: cannot parse {path}: line 1, column 17: "
               "could not convert string to float: 'yyy"),
}


@pytest.mark.parametrize("text, start", LONG.values(), ids=LONG)
def test_long_refused_value_is_cut(tmp_path, text, start):
    path = tmp_path / "long.yaml"
    path.write_text(text % ("y" * 10_000))
    out = assert_refused("validate", path)
    line = next(line for line in out.splitlines()
                if line.startswith(start.format(path=path)))
    assert line.endswith("yyy...")
    assert len(line) < 700


def test_rating_no_register_word_holds_is_an_issue(tmp_path):
    path = write_tiny_config(tmp_path, attack=True)
    raw = yaml.safe_load(path.read_text())
    raw["devices"]["bss"]["rated_kw"] = 1e308  # 1e308 * 100.0 is inf
    path.write_text(yaml.safe_dump(raw))
    out = assert_refused("validate", path)
    assert "error: devices: above the 327.67 kW a Modbus register holds: " \
           "bss.rated_kw 1e+308, meter up to 1e+308\n" in out


@pytest.mark.parametrize("start, end", [
    (["11:30:00"], "14:15:00"), ("11:30:00", {"h": 14}), (41400, "14:15:00"),
], ids=["list", "mapping", "number"])
def test_report_refuses_a_window_time_that_is_not_text(tmp_path, start, end):
    summary = {"steps": 1, "frames": 0, "flow_count": 0,
               "imbalance_integral_kws": 0.0, "peak_import_kw": 0.0,
               "pv_curtailed_kwh": 0.0,
               "attack_window": {"start": start, "end": end}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "process.csv").write_text(
        "t,pv_kw,bss_kw,load_kw,transformer_kw,soc_pct,attack_active\n")
    out = assert_refused("report", tmp_path, tmp_path)
    assert out == (f"error: {tmp_path / 'summary.json'}: "
                   f"not a gridtwin run summary\n")


def aliased(levels: int) -> str:
    """A flow list levels deep, each level six aliases of the one below:
    6 ** levels leaves in a few hundred bytes."""
    text = "[" + ", ".join(["xxxxxxxxxxxxxxxxxxxx"] * 6) + "]"
    for level in range(1, levels):
        text = f"[&a{level} {text}" + f", *a{level}" * 5 + "]"
    return text


@pytest.mark.parametrize("levels", [4, 5])
@pytest.mark.parametrize("key", [
    "clock", "clock.start", "clock.date", "network.subnet", "devices.pv.ip",
    "profiles.load.interpolation", "profiles.load.file", "name"])
def test_aliased_value_is_not_expanded(tmp_path, key, levels):
    path = write_tiny_config(tmp_path, attack=True)
    raw = yaml.safe_load(path.read_text())
    *parents, last = key.split(".")
    node = raw
    for parent in parents:
        node = node[parent]
    node[last] = "ALIASED"
    text = yaml.safe_dump(raw).replace("ALIASED", aliased(levels))
    path.write_text(text)
    assert len(text) < 2000
    out = assert_refused("validate", path)
    want = ("must be a mapping, not [[[...], [...], [...], [...], ...], "
            if key == "clock" else "must be a single value, not a list")
    assert f"error: {key}: {want}" in out
