import copy
import gc
import itertools
import json
import re
import tempfile
import weakref
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin import capture, cosim, data_path
from gridtwin import devices as dev
from gridtwin.cli import _window_integral, main
from gridtwin.grid import GridInputError, pv_output
from gridtwin.scenario import (ConfigError, ScenarioConfig, Simulation, build,
                               parse_time, validate)
from tests.helpers import load_golden, write_tiny_config
from tests.wire import read_pcap


# names that are not one file name; the default output directory is
# dataset-<name>
BAD_NAMES = ("x/y", "../escape", "a\\b", ".", "..", "", "a\0b")
# days whose frames a pcap's unsigned 32-bit seconds cannot stamp
BAD_DATES = ("1969-12-31", "2106-02-08", "9999-12-31")


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

    def test_readme_scenario_example_is_clean(self):
        readme = Path(__file__).parent.parent / "README.md"
        block = re.search(r"## Scenario configuration\n.*?```yaml\n(.*?)```",
                          readme.read_text(), re.DOTALL).group(1)
        cfg = ScenarioConfig(yaml.safe_load(block),
                             base_dir=data_path("configs"))
        assert validate(cfg) == []

    def test_tiny_config_is_clean(self, tmp_path):
        cfg = ScenarioConfig.load(write_tiny_config(tmp_path, attack=True))
        assert validate(cfg) == []
        # a subnet smaller than a /24 holds every tiny address as well
        cfg.raw["network"]["subnet"] = "192.168.10.0/25"
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

    @pytest.mark.parametrize("step_s, start, end, issues", [
        # 5 s steps: 09:17:01 and 09:17:03 both fall before step 25
        (5.0, "09:17:01", "09:17:03", ["attack: window holds no step of 5 s"]),
        (2.0, "09:17:01", "09:17:02", ["attack: window holds no step of 2 s"]),
        (2.0, "09:17:01", "09:17:03", []),  # holds step 61, at 09:17:02
        (5.0, "09:17:00", "09:17:01", []),  # holds step 24, at 09:17:00
    ], ids=["5s", "2s", "2s-one-step", "5s-on-the-grid"])
    def test_attack_window_with_no_step(self, tmp_path, step_s, start, end,
                                        issues):
        def mutate(cfg):
            cfg["clock"]["step_s"] = step_s
            cfg["attack"].update(start=start, end=end)
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate, attack=True))
        assert validate(cfg) == issues

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

    def test_mac_with_a_line_end(self, tmp_path):
        # a YAML block scalar ends in one; the whole value must be a MAC
        def mutate(cfg):
            cfg["devices"]["meter"]["mac"] += "\n"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert "devices.meter.mac: invalid MAC" in validate(cfg)

    def test_ip_outside_subnet(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["meter"]["ip"] = "10.1.2.3"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("outside subnet" in i for i in validate(cfg))

    def test_refused_subnet_is_the_only_issue(self, tmp_path):
        def mutate(cfg):
            cfg["network"]["subnet"] = "10.0.0.1/24"  # host bits set
            for node in cfg["devices"].values():
                node["ip"] = "10.0.0." + node["ip"].rsplit(".", 1)[1]
        issues = validate(ScenarioConfig.load(edited_config(tmp_path, mutate)))
        assert len(issues) == 1 and issues[0].startswith("network.subnet:")

    def test_missing_profile_file(self, tmp_path):
        def mutate(cfg):
            cfg["profiles"]["pv"]["file"] = "nope.csv"
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert any("does not exist" in i for i in validate(cfg))

    def test_profile_file_that_is_a_directory(self, tmp_path):
        def mutate(cfg):
            cfg["profiles"]["pv"]["file"] = "."
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate))
        assert validate(cfg) == [f"profiles.pv.file: {tmp_path} is not a file"]

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

    @pytest.mark.parametrize("lead_s, scan_step", [(15.1, 0), (17.5, -1)])
    def test_recon_lead_on_the_step_grid(self, tmp_path, lead_s, scan_step):
        # 5 s steps, start 12 s in: the window opens at step 3 and the
        # scan runs round(lead_s / 5) steps ahead of it
        def mutate(cfg):
            cfg["clock"]["step_s"] = 5.0
            cfg["attack"].update(start="09:15:12", end="09:16:00",
                                 recon_lead_s=lead_s)
        cfg = ScenarioConfig.load(edited_config(tmp_path, mutate, attack=True))
        refused = [i for i in validate(cfg)
                   if i.startswith("attack.recon_lead_s:")]
        assert bool(refused) == (scan_step < 0)
        if not refused:
            sim = build(cfg)
            assert sim.attacker.scan_step == scan_step
            sim.run()
            assert set(sim.attacker.scan_results) == {
                h.ip for hid, h in sim.network.hosts.items()
                if hid != "attacker"}

    def test_build_refuses_invalid_config(self, tmp_path):
        def mutate(cfg):
            cfg["devices"]["pv"]["ip"] = cfg["devices"]["bss"]["ip"]
        with pytest.raises(ConfigError):
            build(ScenarioConfig.load(edited_config(tmp_path, mutate)))


class TestBuild:
    def test_dropped_simulation_is_freed_without_collection(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path,
                                                          attack=True)))
        sim.run()
        capture = weakref.ref(sim.capture)
        # hosts hold three of the network's tables, none referring back
        network = weakref.ref(sim.network)
        hosts = [weakref.ref(h) for h in sim.network.hosts.values()]
        gc.disable()
        try:
            del sim
            assert capture() is None
            assert network() is None
            assert [h() for h in hosts] == [None] * 6
        finally:
            gc.enable()


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

    def test_config_not_utf8_is_an_error_not_a_traceback(self, tmp_path,
                                                        capsys):
        path = write_tiny_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"tiny", b"tiny\xff", 1))
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out", str(tmp_path / "ds")]) == 1
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err
        assert out.err.count("cannot parse") == 2

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
        # the run starts at 09:15:00: one step runs to 09:15:01
        for until, steps in (("09:16:00", 60), ("09:15:01", 1)):
            out = tmp_path / until.replace(":", "")
            assert main(["run", str(cfg), "--out", str(out),
                         "--until", until]) == 0
            rows = (out / "process.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + steps and rows[1].startswith("09:15:00,")

    def test_run_until_past_the_end_stops_at_the_end(self, tmp_path,
                                                     capsys):
        cfg = write_tiny_config(tmp_path)
        full, late = tmp_path / "full", tmp_path / "late"
        assert main(["run", str(cfg), "--out", str(full)]) == 0
        assert main(["run", str(cfg), "--out", str(late),
                     "--until", "09:25:00"]) == 0
        assert capsys.readouterr().out.count(": 300 steps in ") == 2
        rows = (late / "process.csv").read_text().splitlines()
        assert len(rows) == 1 + 300 and rows[-1].startswith("09:19:59,")
        for name in ("process.csv", "flows.csv", "capture.pcap",
                     "flowgraph.txt", "summary.json"):
            assert (late / name).read_bytes() == (full / name).read_bytes()

    def test_run_bad_until(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert main(["run", str(cfg), "--until", "nope"]) == 1

    @pytest.mark.parametrize("until, error", [
        ("", "bad time-of-day '' (expected HH:MM[:SS])"),
        # the run starts at 09:15:00
        ("09:10", "--until 09:10 is not after clock.start 09:15:00"),
        ("09:15", "--until 09:15 is not after clock.start 09:15:00"),
        ("09:15:00", "--until 09:15:00 is not after clock.start 09:15:00"),
    ], ids=["empty", "before", "at-hh-mm", "at-hh-mm-ss"])
    def test_run_refuses_an_until_not_after_the_start(self, tmp_path, capsys,
                                                      until, error):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "ds"
        assert main(["run", str(cfg), "--out", str(out),
                     "--until", until]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not out.exists()  # refused before the run and the --out

    def test_failed_spill_aborts_the_run_and_keeps_its_outputs(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        monkeypatch.setattr(capture, "SPOOL_BYTES", 64)
        out = tmp_path / "ds"
        assert main(["run", str(write_tiny_config(tmp_path)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime abort: hook 'Network.transport' "
                              "failed at step ")
        assert "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        _, packets = read_pcap((out / "capture.pcap").read_bytes())
        assert 0 < summary["frames"] == len(packets)

    def test_run_invalid_config(self, tmp_path):
        def mutate(cfg):
            del cfg["devices"]["meter"]
        assert main(["run", str(edited_config(tmp_path, mutate))]) == 1

    def test_run_default_outdir_uses_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_tiny_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "dataset-tiny" / "summary.json").is_file()

    def test_null_name_takes_the_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_tiny_config(tmp_path, name=None)
        assert ScenarioConfig.load(cfg).name == "scenario"
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "dataset-scenario" / "summary.json").is_file()

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_run_refuses_a_name_that_is_not_a_file_name(
            self, tmp_path, monkeypatch, name):
        cfg = write_tiny_config(tmp_path, name=name)
        work = tmp_path / "work" / "here"
        work.mkdir(parents=True)
        monkeypatch.chdir(work)
        assert main(["run", str(cfg)]) == 1
        assert list((tmp_path / "work").rglob("*")) == [work]

    @pytest.mark.parametrize("date", BAD_DATES)
    def test_run_refuses_a_date_the_pcap_cannot_stamp(self, tmp_path, capsys,
                                                      date):
        cfg = edited_config(tmp_path, lambda c: set_field(
            c, ("clock", "date"), date))
        out = tmp_path / "ds"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: clock.date: ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/ds"])
    def test_run_refuses_an_out_it_cannot_write(self, tmp_path, capsys,
                                                monkeypatch, out):
        (tmp_path / "taken").write_text("")
        monkeypatch.setattr(Simulation, "run",
                            lambda *a, **kw: pytest.fail("the run started"))
        cfg = write_tiny_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_run_starts_from_a_full_battery(self, tmp_path):
        # capacity * 100 / 100 rounds above this capacity, which once
        # aborted the run at step 0 with exit code 2
        def mutate(cfg):
            cfg["devices"]["bss"].update(capacity_kwh=13.125916774101373,
                                         initial_soc_pct=100)
        path = edited_config(tmp_path, mutate)
        assert main(["run", str(path), "--out", str(tmp_path / "ds")]) == 0

    @pytest.mark.parametrize("realtime", [False, True],
                             ids=["as-fast-as-possible", "realtime"])
    def test_run_realtime_paces_the_steps(self, tmp_path, monkeypatch,
                                          realtime):
        clock = FakeTime(tick=0.25)
        monkeypatch.setattr(cosim, "time", clock)
        starts = []  # (step, fake time it started at)
        step_all = cosim.Scheduler.step_all

        def timed_step_all(sched):
            starts.append((sched.clock.now, clock.now))
            return step_all(sched)
        monkeypatch.setattr(cosim.Scheduler, "step_all", timed_step_all)
        cfg = write_tiny_config(tmp_path)
        argv = ["run", str(cfg), "--out", str(tmp_path / "ds")]
        assert main(argv + ["--realtime"] * realtime) == 0
        assert len(starts) == 300
        if realtime:
            # step k starts no earlier than k steps of 1 s after the first
            assert all(t - starts[0][1] >= k for k, t in starts)
            assert clock.now - starts[0][1] >= 300
        else:
            assert clock.sleeps == []

    def test_run_aborts_with_partial_dataset(self, tmp_path, capsys,
                                             monkeypatch):
        # a fault inside a simulator mid-run (validate refuses the configs
        # that once did this, see test_register_range_is_validated)
        calls = itertools.count()

        def faulty_pv_output(*args):
            if next(calls) == 30:
                raise GridInputError("injected fault")
            return pv_output(*args)
        monkeypatch.setattr(dev, "pv_output", faulty_pv_output)
        path = write_tiny_config(tmp_path)
        out = tmp_path / "partial"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "runtime abort" in capsys.readouterr().err
        rows = (out / "process.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 30  # the steps before the fault

    @pytest.mark.parametrize("abort", [False, True],
                             ids=["after-run", "after-runtime-abort"])
    def test_run_export_error_exits_1(self, tmp_path, capsys, monkeypatch,
                                      abort):
        # the --out directory exists, but process.csv cannot be written
        out = tmp_path / "ds"
        (out / "process.csv").mkdir(parents=True)
        def fault(*args):
            raise GridInputError("injected fault")
        if abort:
            monkeypatch.setattr(dev, "pv_output", fault)
        cfg = write_tiny_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(out),
                     "--until", "09:16:00"]) == 1
        err = capsys.readouterr().err
        assert "export error: " in err and "Traceback" not in err
        assert ("runtime abort: " in err) == abort

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

    def test_report_window_integral_adds_left_to_right(self):
        # sum() compensates since CPython 3.12: it would give 3600 + 1e-12
        powers = [3600.0] + [1e-13] * 10
        samples = [(float(t), p) for t, p in enumerate(powers)]
        window = {"start": "00:00:00", "end": "00:00:11"}
        assert _window_integral(samples, window) == 3600.0

    def test_report_missing_dataset(self, tmp_path):
        assert main(["report", str(tmp_path), str(tmp_path)]) == 1

    @pytest.mark.parametrize("edit, row", [
        (None, "09:15:00,1.0,0.0,2.0"),
        (lambda s: [s], None),
        (lambda s: {k: v for k, v in s.items() if k != "steps"}, None),
        (lambda s: {**s, "frames": "many"}, None),
        (lambda s: {**s, "attack_window": "11:30:00"}, None),
        (lambda s: {**s, "attack_window": {"start": "xx", "end": "xx"}},
         None),
    ], ids=["short-row", "summary-not-object", "summary-without-steps",
            "summary-non-number", "window-not-object", "window-bad-time"])
    def test_report_malformed_dataset(self, tmp_path, capsys, edit, row):
        summary = {"steps": 1, "frames": 0, "flow_count": 0,
                   "imbalance_integral_kws": 0.0, "peak_import_kw": 0.0,
                   "pv_curtailed_kwh": 0.0, "attack_window": None}
        # two samples, so that report integrates over the attack window
        good_row = ("09:15:00,1.0,0.0,2.0,1.0,50.0,0\n"
                    "09:15:01,1.0,0.0,2.0,1.0,50.0,0")
        for name, s, r in (("good", summary, good_row),
                           ("bad", (edit or (lambda s: s))(summary),
                            row or good_row)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(json.dumps(s))
            (tmp_path / name / "process.csv").write_text(
                f"t,pv_kw,bss_kw,load_kw,transformer_kw,soc_pct,"
                f"attack_active\n{r}\n")
        good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
        assert main(["report", good, good]) == 0
        capsys.readouterr()
        assert main(["report", good, bad]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class FakeTime:
    """Stands in for the time module in gridtwin.cosim: each reading of
    the clock advances it by tick seconds, and sleep advances it."""

    def __init__(self, tick: float):
        self.now, self.tick, self.sleeps = 0.0, tick, []

    def monotonic(self) -> float:
        self.now += self.tick
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


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
    # the attacker would probe 65,534 or 510 addresses in one step
    (("network", "subnet"), "192.168.0.0/16"),
    (("network", "subnet"), "192.168.10.0/23"),
    # YAML reads yes and true as booleans, which float() and int() take
    (("devices", "pv", "rated_kw"), True),
    (("clock", "step_s"), True),
    (("ems", "request_timeout_steps"), True),
    (("ems", "request_timeout_steps"), 2.5),  # once run as 2
    # unknown keys, once ignored so that a typo took the default
    (("ems", "deadbnd_kw"), 5),
    (("attak",), {"start": "11:30:00"}),
    (("devices", "pvv"), {"rated_kw": 36.0}),
    (("clock", "stepp"), 3),
    # each once validated; run then wrote into a subdirectory or raised
    *((("name",), name) for name in BAD_NAMES),
    # each once validated; run then raised struct.error writing the pcap
    *((("clock", "date"), date) for date in BAD_DATES),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_bad_field_is_reported_not_raised(tmp_path, path, value):
    cfg_path = edited_config(tmp_path, lambda cfg: set_field(cfg, path, value))
    issues = validate(ScenarioConfig.load(cfg_path))
    assert issues != []
    if path[-1] in ("deadbnd_kw", "attak", "pvv", "stepp"):
        assert issues == [f"{'.'.join(path)}: unknown key"]
    if path[-1] == "start":
        assert any("quote the time" in issue for issue in issues)
    if path[-1] == "subnet":
        assert issues == ["network.subnet: must be a /24 or smaller"]
    if path[-1] in ("name", "date"):
        assert len(issues) == 1 and issues[0].startswith(
            f"{'.'.join(path)}: ")
    assert main(["validate", str(cfg_path)]) == 1
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "ds")]) == 1


# each passed validate and then raised OverflowError building or
# running, or raised it out of validate: a duration or the run divided
# by clock.step_s is an infinite number of steps.  At 1e-300 s the run
# is finite but past 2**53 steps, where a float no longer holds every
# step index: it once validated, and run then hung working out the
# number of steps.  A step under a millisecond is now refused as such
# (the dataset's times would repeat), so only a duration can still
# overflow.
TINY_STEP = ("clock", "step_s"), 1.0e-310
MILLI_STEP = ("clock", "step_s"), 0.001
STEP_FLOOR = ("clock.step_s: must be >= 0.001: the dataset writes times to "
              "the millisecond")


def too_many(path: str) -> str:
    return f"{path}: too many steps of 0.001 s to count"


@pytest.mark.parametrize("edits, attack, issues", [
    ((TINY_STEP,), False, [STEP_FLOOR]),
    (((("clock", "step_s"), 1.0e-300),), False, [STEP_FLOOR]),
    ((TINY_STEP,), True, [STEP_FLOOR]),
    (((("clock", "step_s"), 0.0005),), False, [STEP_FLOOR]),
    ((MILLI_STEP, (("ems", "period_s"), 1.0e308)), False,
     [too_many("ems.period_s")]),
    ((MILLI_STEP, (("attack", "repoison_period_s"), 1.0e308)), True,
     [too_many("attack.repoison_period_s")]),
    ((MILLI_STEP, (("network", "arp_cache_expiry_s"), 1.0e308)), False,
     [too_many("network.arp_cache_expiry_s")]),
    ((MILLI_STEP, (("attack", "recon_lead_s"), 1.0e308)), True,
     [too_many("attack.recon_lead_s")]),
], ids=["step", "step-1e-300", "step-attack", "step-half-ms", "ems-period",
        "repoison-period", "cache-expiry", "recon-lead"])
def test_step_count_overflow_is_reported_not_raised(tmp_path, capsys, edits,
                                                    attack, issues):
    def mutate(cfg):
        for path, value in edits:
            set_field(cfg, path, value)
    cfg_path = edited_config(tmp_path, mutate, attack=attack)
    assert validate(ScenarioConfig.load(cfg_path)) == issues
    assert main(["validate", str(cfg_path)]) == 1
    out = tmp_path / "ds"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {'; '.join(issues)}\n"
    assert not out.exists()


def test_report_takes_the_step_from_all_the_rows(tmp_path, capsys):
    # process.csv rounds times to the millisecond: the first two rows are
    # 0.002 s apart at a 0.0015 s step, which read 413.3 for 309.9
    def mutate(cfg):
        set_field(cfg, ("clock", "step_s"), 0.0015)
        set_field(cfg, ("clock", "end"), "09:16:00")
        cfg["attack"].update(start="09:15:20", end="09:15:40",
                             recon_lead_s=5)
    cfg_path = edited_config(tmp_path, mutate, attack=True)
    out = tmp_path / "ds"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    want = summary["attack_window"]["imbalance_integral_kws"]
    assert f"{want:.1f}" == "309.9"
    capsys.readouterr()
    assert main(["report", str(out), str(out)]) == 0
    assert "integral A = 309.9, B = 309.9 kW*s" in capsys.readouterr().out


def test_millisecond_step_builds_with_distinct_times(tmp_path):
    def mutate(cfg):
        set_field(cfg, ("clock", "step_s"), 0.001)
        set_field(cfg, ("clock", "end"), "09:15:01")
    cfg_path = edited_config(tmp_path, mutate)
    out = tmp_path / "ds"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    times = [row.split(",")[0] for row in
             (out / "process.csv").read_text().splitlines()[1:]]
    assert len(times) == len(set(times)) == 1000
    assert times[:2] == ["09:15:00", "09:15:00.001"]
    assert times[-1] == "09:15:00.999"


# each passed validate and then aborted the run on a register word
# (0.01 kW units, at most 327.67 kW)
@pytest.mark.parametrize("edits, load_csv, attack", [
    ({("profiles", "pv", "factor"): 80}, None, False),  # PV available 368
    ({("devices", "pv", "rated_kw"): 500, ("profiles", "pv", "factor"): 100},
     None, False),
    ({("devices", "load", "rated_kw"): 900}, "0,5.0\n30,700.0\n", False),
    ({("devices", "bss", "rated_kw"): 400}, None, False),
    # load 200 and BSS 150 each fit; the meter can show 350
    ({("devices", "load", "rated_kw"): 200, ("profiles", "load", "factor"): 40,
      ("devices", "bss", "rated_kw"): 150}, None, False),
    ({("attack", "pv_limit_kw"): 327.67}, None, True),  # encodes as NO_LIMIT
    ({("attack", "pv_limit_kw"): 327.666}, None, True),  # rounds to it
], ids=["pv-profile", "pv-rating", "load", "bss-rating", "meter",
        "pv-limit", "pv-limit-rounded"])
def test_register_range_is_validated(tmp_path, edits, load_csv, attack):
    def mutate(cfg):
        for path, value in edits.items():
            set_field(cfg, path, value)
    cfg_path = edited_config(tmp_path, mutate, attack=attack)
    if load_csv is not None:
        (tmp_path / "load.csv").write_text(load_csv)
    assert len(validate(ScenarioConfig.load(cfg_path))) == 1
    assert main(["validate", str(cfg_path)]) == 1
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "ds")]) == 1


def test_rating_beyond_register_range_runs_if_never_shown(tmp_path):
    # the load bank shows min(profile, rating): a 400 kW bank on a ~6 kW
    # profile never puts more than 6.2 kW in its register
    cfg_path = edited_config(tmp_path, lambda cfg: set_field(
        cfg, ("devices", "load", "rated_kw"), 400))
    assert validate(ScenarioConfig.load(cfg_path)) == []
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "ds")]) == 0


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
