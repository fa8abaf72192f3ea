"""The two YAML loaders behind ScenarioConfig.load.

libyaml (PyYAML's C binding) parses a small scenario file without tabs;
the pure-Python loader parses every other file and parses again whatever
libyaml refuses.  So both must give the same data for the scenarios the
package runs, every error must carry the pure loader's text, the package
must run the same without libyaml, and no input, however deeply nested,
may end in a traceback or kill the process.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings

from gridtwin import data_path, scenario
from gridtwin.cli import main
from gridtwin.scenario import ConfigError, ScenarioConfig, build
from tests.helpers import GOLDEN_NAMES, write_tiny_config
from tests.helpers import merge, scenarios

SRC = Path(scenario.__file__).parents[1]
needs_libyaml = pytest.mark.skipif(scenario.LIBYAML is None,
                                   reason="PyYAML has no libyaml binding")


def both_loaders(text: bytes):
    """(libyaml's data, the pure loader's data) of one document."""
    return yaml.load(text, Loader=scenario.LIBYAML), yaml.safe_load(text)


def dense_profile_config(tmp_path: Path) -> Path:
    """normal.yaml as a dense-profile run rewrites it: one hour, linear
    interpolation, profile files beside the config."""
    raw = yaml.safe_load(data_path("configs", "normal.yaml").read_text())
    raw["name"] = "dense-profile"
    raw["clock"]["end"] = "10:15:00"
    for which in ("load", "pv"):
        raw["profiles"][which].update(file=f"{which}.csv",
                                      interpolation="linear")
    path = tmp_path / "dense-profile.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.fixture
def configs(tmp_path):
    """The golden configs, both tiny configs and a dense-profile one."""
    for sub in ("normal", "attack"):
        (tmp_path / sub).mkdir()
    return [*(data_path("configs", f"{name}.yaml") for name in GOLDEN_NAMES),
            write_tiny_config(tmp_path / "normal", attack=False),
            write_tiny_config(tmp_path / "attack", attack=True),
            dense_profile_config(tmp_path)]


class TestParity:
    @needs_libyaml
    def test_shipped_and_test_configs_load_alike(self, configs):
        for path in configs:
            text = path.read_bytes()
            assert len(text) <= scenario._LIBYAML_BYTES, path
            c_data, pure_data = both_loaders(text)
            assert c_data == pure_data, path
            assert ScenarioConfig.load(path).raw == pure_data, path

    @needs_libyaml
    @settings(max_examples=40, deadline=None)
    @given(drawn=scenarios())
    def test_generated_configs_load_alike(self, drawn):
        overrides, _, _ = drawn
        with tempfile.TemporaryDirectory() as tmp:
            base = yaml.safe_load(write_tiny_config(Path(tmp), attack=True)
                                  .read_text())
        text = yaml.safe_dump(merge(base, overrides)).encode()
        c_data, pure_data = both_loaders(text)
        assert c_data == pure_data

    @pytest.mark.parametrize("text", [
        b"a: [1, 2",
        b"a: b: c",
        b"clock:\n\tstart: '09:15:00'\n",
        b"a: *nope\n",
        b"name: tiny\xff\n",
    ], ids=["unclosed", "nested-value", "tab-indent", "undefined-alias",
            "not-utf8"])
    def test_error_text_is_the_pure_loaders(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.safe_load(text)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.load(path)
        assert str(err.value) == f"cannot parse {path}: {pure.value}"

    @pytest.mark.parametrize("text", [b"a: {a1:}\n", b"a: [?]\n"])
    def test_document_libyaml_refuses_is_the_pure_loaders(self, tmp_path,
                                                          text):
        if scenario.LIBYAML is not None:
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=scenario.LIBYAML)
        path = tmp_path / "odd.yaml"
        path.write_bytes(text)
        assert ScenarioConfig.load(path).raw == yaml.safe_load(text)

    @needs_libyaml
    def test_step_with_a_trailing_tab_is_refused(self, tmp_path):
        # libyaml alone would read it as 1.0
        text = b"clock:\n  step_s: 1.0\t\n"
        assert yaml.load(text, Loader=scenario.LIBYAML) == {
            "clock": {"step_s": 1.0}}
        path = tmp_path / "tab.yaml"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            ScenarioConfig.load(path)


@needs_libyaml
class TestRemainingDifferences:
    """Documents both loaders accept, or only libyaml accepts, whose data
    differs: a small file without tabs is libyaml's to read."""

    def test_comment_glued_to_a_block_scalar_header(self, tmp_path):
        text = b"a: |#x\n  t\n"
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(text)
        path = tmp_path / "glued.yaml"
        path.write_bytes(text)
        assert ScenarioConfig.load(path).raw == {"a": "t\n"}

    def test_bare_tag(self, tmp_path):
        text = b"a: !\n"
        assert yaml.safe_load(text) == {"a": None}
        path = tmp_path / "bang.yaml"
        path.write_bytes(text)
        assert ScenarioConfig.load(path).raw == {"a": ""}


class TestWithoutLibyaml:
    def test_golden_configs_load_to_the_same_data(self, monkeypatch):
        paths = [data_path("configs", f"{n}.yaml") for n in GOLDEN_NAMES]
        first = [ScenarioConfig.load(p).raw for p in paths]
        monkeypatch.setattr(scenario, "LIBYAML", None)
        assert [ScenarioConfig.load(p).raw for p in paths] == first

    def test_tiny_run_exports_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = write_tiny_config(tmp_path, attack=True)

        def export(outdir):
            sim = build(ScenarioConfig.load(cfg))
            sim.run()
            return {fmt: path.read_bytes()
                    for fmt, path in sim.export(outdir).items()}
        first = export(tmp_path / "a")
        monkeypatch.setattr(scenario, "LIBYAML", None)
        assert export(tmp_path / "b") == first


# a key written twice in one mapping, where the second one sits, and the key
DUPLICATES = {
    "flow": (b'clock: {start: "09:15:00", end: "09:20:00", '
             b'start: "09:16:00"}\n', 1, 45, "'start'"),
    "block": (b"a: 1\nb: 2\na: 3\n", 3, 1, "'a'"),
    "nested": (b"a:\n  - {x: 1}\n  - {x: 1, y: 2, x: 3}\n", 3, 18, "'x'"),
    "quoted": (b'a: {b: 1, "b": 2}\n', 1, 11, "'b'"),
    "equal-numbers": (b"a: {1: x, 1.0: y}\n", 1, 11, "1.0"),
    "in-a-merged-mapping": (b"a: {<<: {x: 1, x: 2}}\n", 1, 16, "'x'"),
}


def both_ways(monkeypatch, path: Path):
    """ScenarioConfig.load(path) with libyaml, then without it: the data,
    or the ConfigError text."""
    out = []
    for loader in (scenario.LIBYAML, None):
        monkeypatch.setattr(scenario, "LIBYAML", loader)
        try:
            out.append(ScenarioConfig.load(path).raw)
        except ConfigError as exc:
            out.append(str(exc))
    return out


class TestDuplicateKeys:
    @pytest.mark.parametrize("text, line, column, key", DUPLICATES.values(),
                             ids=DUPLICATES.keys())
    def test_refused_naming_the_second(self, tmp_path, monkeypatch, text,
                                       line, column, key):
        path = tmp_path / "dup.yaml"
        path.write_bytes(text)
        want = (f"cannot parse {path}: line {line}, column {column}: "
                f"duplicate key {key}")
        assert both_ways(monkeypatch, path) == [want, want]

    @pytest.mark.parametrize("text, raw", [
        # an explicit key overrides the one merged in
        (b"base: &b {x: 1, y: 2}\nover: {<<: *b, x: 3}\n",
         {"base": {"x": 1, "y": 2}, "over": {"x": 3, "y": 2}}),
        (b"a: &a {x: 1}\nb: &b {x: 2}\nc: {<<: [*a, *b], y: 0}\n",
         {"a": {"x": 1}, "b": {"x": 2}, "c": {"x": 1, "y": 0}}),
        # a mapping merged into another before it is built itself
        (b"top:\n  <<: &m {<<: {x: 1}, x: 2}\nagain: *m\n",
         {"top": {"x": 2}, "again": {"x": 2}}),
    ], ids=["override", "merged-twice", "merged-first"])
    def test_merged_keys_may_be_overridden(self, tmp_path, monkeypatch, text,
                                           raw):
        path = tmp_path / "merge.yaml"
        path.write_bytes(text)
        assert yaml.safe_load(text) == raw
        assert both_ways(monkeypatch, path) == [raw, raw]

    def test_validate_exits_1(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        at = lines.index("  start: 09:15:00\n")
        lines.insert(at + 1, "  start: 09:16:00\n")
        path.write_text("".join(lines))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot parse {path}: line {at + 2}, column 3: "
            "duplicate key 'start'\n")


# "[" * n + "]" * n: the pure loader runs out of recursion near 490
# levels, and libyaml's C composer crashes the process near 25,000
DEEP = {
    "lists-500": "a: " + "[" * 500 + "]" * 500,
    "maps-2000": "a: " + "{a: " * 2000 + "1" + "}" * 2000,
    "clock-800": "clock: " + "[" * 800 + "]" * 800,
    "clock-2000": "clock: " + "[" * 2000 + "]" * 2000,  # under 4 KiB
    "lists-100000": "a: " + "[" * 100_000 + "]" * 100_000,  # 200 KB
}


def cli_validate(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "gridtwin.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_an_error_not_a_crash(tmp_path, text):
    path = tmp_path / "deep.yaml"
    path.write_text(text + "\n")
    proc = cli_validate(path)
    assert proc.returncode == 1, proc.stderr[-500:]  # no signal: not < 0
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stderr == f"error: cannot parse {path}: nested too deeply\n"


def test_deep_unknown_mapping_is_an_issue(tmp_path):
    # the pure loader builds 400 levels; the keys under an unknown key
    # were once all wrapped, level by level, and ran out of recursion
    path = tmp_path / "deep.yaml"
    path.write_text("a: " + "{a: " * 400 + "1" + "}" * 400 + "\n")
    proc = cli_validate(path)
    assert proc.returncode == 1, proc.stderr[-500:]
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "error: a: unknown key\n" in proc.stdout
