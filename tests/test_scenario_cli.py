import copy

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin.cli import main
from gridtwin.scenario import ConfigError, ScenarioConfig, build, parse_time, validate
from tests.conftest import load_golden, write_tiny_config


def edited_config(tmp_path, mutate, attack=False):
    path = write_tiny_config(tmp_path, attack=attack)
    cfg = yaml.safe_load(path.read_text())
    mutate(cfg)
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestParseTime:
    def test_hh_mm_ss(self):
        assert parse_time("11:30:00") == 11 * 3600 + 30 * 60

    def test_hh_mm(self):
        assert parse_time("09:15") == 9 * 3600 + 15 * 60

    @pytest.mark.parametrize("bad", ["25:00", "9:61", "noon", "11:30:99", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_time(bad)

    def test_unquoted_yaml_time_asks_for_quotes(self):
        value = yaml.safe_load("start: 11:30:00")["start"]
        assert value == 41400  # YAML 1.1 base-60 integer
        with pytest.raises(ConfigError, match="quote the time"):
            parse_time(value)


class TestValidate:
    def test_golden_configs_are_clean(self):
        for name in ("normal", "attack"):
            assert validate(load_golden(name)) == []

    def test_tiny_config_is_clean(self, tmp_path):
        cfg = ScenarioConfig.load(write_tiny_config(tmp_path, attack=True))
        assert validate(cfg) == []

    def test_attack_end_before_start(self, tmp_path):
        def mutate(cfg):
            cfg["attack"]["start"], cfg["attack"]["end"] = "09:19:00", "09:17:00"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate, attack=True))
        assert any("start must precede end" in i for i in validate(cfg))

    def test_attack_window_outside_run(self, tmp_path):
        def mutate(cfg):
            cfg["attack"]["end"] = "16:00:00"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate, attack=True))
        assert any("within the run window" in i for i in validate(cfg))

    def test_duplicate_ip(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["pv"]["ip"] = cfg["devices"]["bss"]["ip"]
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("duplicate IP" in i for i in validate(cfg))

    def test_bad_mac(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["meter"]["mac"] = "not-a-mac"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("invalid MAC" in i for i in validate(cfg))

    def test_ip_outside_subnet(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["meter"]["ip"] = "10.1.2.3"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("outside subnet" in i for i in validate(cfg))

    def test_missing_profile_file(self, tmp_path):
        def mutate(cfg):
            cfg["profiles"]["pv"]["file"] = "nope.csv"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("does not exist" in i for i in validate(cfg))

    def test_bad_soc(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["bss"]["initial_soc_pct"] = 120
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("initial_soc_pct" in i for i in validate(cfg))

    def test_overcharged_attack_rejected(self, tmp_path):
        def mutate(cfg):
            cfg["attack"]["bss_charge_kw"] = 99
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate, attack=True))
        assert any("exceeds BSS rating" in i for i in validate(cfg))

    def test_attack_without_room_for_recon(self, tmp_path):
        # the scan would be due 20 s before the run starts, so it never runs
        def mutate(cfg):
            cfg["attack"]["start"] = "09:15:10"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate, attack=True))
        assert any(i.startswith("attack.recon_lead_s:") for i in validate(cfg))

    def test_build_refuses_invalid_config(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["pv"]["ip"] = cfg["devices"]["bss"]["ip"]
        with pytest.raises(ConfigError):
            build(ScenarioConfig.load(edited_config(tmp_path, mutate)))


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", str(write_tiny_config(tmp_path))]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_problems(self, tmp_path, capsys):
        def mutate(cfg):
            cfg["devices"]["meter"]["mac"] = "zz"
        path = edited_config(tmp_path, mutate)
        assert main(["validate", str(path)]) == 1
        assert "problem(s) found" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "ghost.yaml")]) == 1

    def test_run_writes_dataset(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "ds"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for fname in ("process.csv", "flows.csv", "capture.pcap",
                      "flowgraph.txt", "summary.json"):
            assert (out / fname).is_file()
        assert "300 steps" in capsys.readouterr().out

    def test_run_until_truncates(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "short"
        assert main(["run", str(cfg), "--out", str(out),
                     "--until", "09:16:00"]) == 0
        rows = (out / "process.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 60

    def test_run_bad_until(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["run", str(cfg), "--until", "nope"]) == 1

    def test_run_invalid_config(self, tmp_path):
        def mutate(cfg):
            del cfg["devices"]["meter"]
        assert main(["run", str(edited_config(tmp_path, mutate))]) == 1

    def test_run_default_outdir_uses_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_tiny_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "dataset-tiny" / "summary.json").is_file()

    def test_run_aborts_with_partial_dataset(self, tmp_path, capsys):
        # a load far beyond fixed-point range blows up the meter mid-run
        def mutate(cfg):
            cfg["devices"]["load"]["rated_kw"] = 900.0
            (tmp_path / "load.csv").write_text("0,5.0\n30,700.0\n")
        path = edited_config(tmp_path, mutate)
        out = tmp_path / "partial"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "runtime abort" in capsys.readouterr().err
        assert (out / "process.csv").is_file()

    def test_report_identical_and_different(self, tmp_path, capsys):
        norm = write_tiny_config(tmp_path)
        atk_dir = tmp_path / "atk-cfg"
        atk_dir.mkdir()
        atk = write_tiny_config(atk_dir, attack=True)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["run", str(norm), "--out", str(a)]) == 0
        assert main(["run", str(norm), "--out", str(b)]) == 0
        assert main(["run", str(atk), "--out", str(c)]) == 0
        capsys.readouterr()
        assert main(["report", str(a), str(b)]) == 0
        assert "datasets are identical" in capsys.readouterr().out
        assert main(["report", str(a), str(c)]) == 0
        text = capsys.readouterr().out
        assert "attack window" in text and "only in B" in text

    def test_report_missing_dataset(self, tmp_path):
        assert main(["report", str(tmp_path), str(tmp_path)]) == 1


def set_field(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


# each once raised out of validate or build, or aborted the run at step 0
@pytest.mark.parametrize("path, value", [
    (("clock", "step_s"), "abc"),
    (("devices", "pv", "rated_kw"), "x"),
    (("profiles", "pv", "factor"), "x"),
    (("profiles", "pv", "interpolation"), "cubic"),
    (("devices",), [1]),
    (("devices", "bss", "capacity_kwh"), 0),
    (("clock", "start"), 41400),  # how YAML loads an unquoted 11:30:00
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_bad_field_is_reported_not_raised(tmp_path, path, value):
    cfg_path = edited_config(tmp_path, lambda cfg: set_field(cfg, path, value))
    issues = validate(ScenarioConfig.load(cfg_path))
    assert issues != []
    if path[-1] == "start":
        assert any("quote the time" in issue for issue in issues)
    assert main(["validate", str(cfg_path)]) == 1
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "ds")]) == 1


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, prefix + (key,))
    else:
        yield prefix


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory):
    """The raw tiny configs, without and with an attack, and their dir."""
    out = []
    for attack in (False, True):
        path = write_tiny_config(tmp_path_factory.mktemp("tiny"), attack)
        out.append((yaml.safe_load(path.read_text()), path.parent))
    return out


JUNK = st.one_of(st.text(max_size=12), st.just(0), st.integers(max_value=-1),
                 st.floats(max_value=-1e-6, allow_infinity=False), st.none(),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(),
                                 max_size=2))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_is_total_and_agrees_with_build(tiny_configs, data):
    raw, base_dir = data.draw(st.sampled_from(tiny_configs))
    raw = copy.deepcopy(raw)
    path = data.draw(st.sampled_from(sorted(leaf_paths(raw))))
    set_field(raw, path, data.draw(JUNK))
    cfg = ScenarioConfig(raw=raw, base_dir=base_dir)
    issues = validate(cfg)
    assert isinstance(issues, list)
    try:
        build(cfg)
    except ConfigError:
        assert issues
    else:
        assert issues == []
