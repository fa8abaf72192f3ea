import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridtwin.cosim import Scheduler, SimClock
from gridtwin.ems import PORT_METER, ControlPolicy, EmsController, control_step
from gridtwin.modbus import MODBUS_PORT
from gridtwin.netem import IpDelivery, Network
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config

POLICY = ControlPolicy()


class TestControlStep:
    def test_import_commands_charge_reduction(self):
        # meter shows 2 kW import: battery must absorb 2 kW less / feed 2 kW more
        assert control_step(2.0, 0.0, POLICY) == -2.0

    def test_export_commands_charging(self):
        assert control_step(-3.0, 1.0, POLICY) == 4.0

    def test_deadband_returns_none(self):
        assert control_step(0.05, 1.0, POLICY) is None
        assert control_step(-0.1, 1.0, POLICY) is None

    def test_clamped_to_rating(self):
        assert control_step(-20.0, 10.0, POLICY) == 15.0
        assert control_step(20.0, -10.0, POLICY) == -15.0

    @given(meter=st.floats(-30, 30), prev=st.floats(-15, 15))
    def test_perfect_plant_nulls_the_meter(self, meter, prev):
        """If the battery tracks the command exactly, next meter reading is 0."""
        new = control_step(meter, prev, POLICY)
        if new is None:
            assert abs(meter) <= POLICY.deadband_kw
        elif abs(new) < POLICY.bss_rated_kw:
            # battery power moves by (new - prev); the meter absorbs it
            assert meter + (new - prev) == pytest.approx(0.0, abs=1e-9)

    @given(meter=st.floats(-100, 100), prev=st.floats(-15, 15))
    def test_output_always_within_rating(self, meter, prev):
        new = control_step(meter, prev, POLICY)
        assert new is None or abs(new) <= POLICY.bss_rated_kw


class TestControllerLoop:
    def test_closed_loop_reaches_deadband(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path)))
        sim.run()
        # final knots: 5.6 kW load, 4.1 kW PV -> 1.5 kW import to null
        tail = sim.capture.samples[-30:]
        assert all(abs(s.transformer_kw) <= 0.1 + 1e-9 for s in tail)
        assert sim.ems.prev_setpoint_kw == pytest.approx(-1.5, abs=0.05)

    def test_no_spurious_writes_inside_deadband(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path)))
        sim.run()
        # once settled, the battery power holds steady between profile knots
        powers = [s.bss_kw for s in sim.capture.samples[40:55]]
        assert max(powers) - min(powers) < 0.2

    def test_unreachable_devices_time_out(self):
        clock = SimClock(epoch_s=0.0, step_s=1.0)
        net = Network(clock)
        ems_host = net.attach("ems", mac="02:00:00:00:00:01",
                              ip="192.168.10.10")
        ems = EmsController(ems_host, ControlPolicy(),
                            meter_ip="192.168.10.30", pv_ip="192.168.10.21",
                            bss_ip="192.168.10.22", clock=clock)
        sched = Scheduler(clock)
        sched.register(ems.handle())
        sched.add_hook(net.transport)
        sched.run(12)
        kinds = {k for _, k in ems.events}
        assert {"meter-read-timeout", "pv-read-timeout",
                "bss-read-timeout"} <= kinds

    # a read response with no data at all, and one whose byte count is 0
    @pytest.mark.parametrize("payload", [
        bytes.fromhex("0001000000020103"), bytes.fromhex("000100000003010300")],
        ids=["no-data", "zero-count"])
    def test_malformed_meter_read_is_logged(self, payload):
        clock = SimClock(epoch_s=0.0, step_s=1.0)
        net = Network(clock)
        ems_host = net.attach("ems", mac="02:00:00:00:00:01",
                              ip="192.168.10.10")
        ems = EmsController(ems_host, ControlPolicy(),
                            meter_ip="192.168.10.30", pv_ip="192.168.10.21",
                            bss_ip="192.168.10.22", clock=clock)
        sched = Scheduler(clock)
        sched.register(ems.handle())
        sched.step_all()  # starts a cycle; the meter read is txid 1
        assert ems._outstanding[1][0] == "meter-read"
        ems_host.inbox.append(IpDelivery("192.168.10.30", ems_host.ip,
                                         MODBUS_PORT, PORT_METER, 1000, 0,
                                         payload, 1))
        sched.step_all()
        assert ems.events == [(1, "meter-read-malformed")]
        assert ems._meter_kw is None and 1 not in ems._outstanding

    def test_poll_cadence(self, tmp_path):
        sim = build(ScenarioConfig.load(write_tiny_config(tmp_path)))
        sim.run(until_s=sim.config.start_s + 60)
        # one meter-read request per 5 s period over 60 s
        flows = sim.capture.flows
        key = next(k for k in flows
                   if k[2] == "192.168.10.10" and k[3] == "192.168.10.30")
        assert flows[key].frames == 12
