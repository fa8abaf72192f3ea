from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin.cosim import SimClock
from gridtwin.devices import GridSimulator
from gridtwin.grid import (BssState, GridInputError, LoadState, PvState,
                           bss_euler, pv_output, transformer_kw)
from gridtwin.profiles import TimeSeriesProfile

BSS = BssState()  # the default battery: 22 kWh, 15 kW, unity efficiency


def step_bss(soc, setpoint, dt_s, eta=BSS.efficiency):
    """One Euler step of the default battery: (actual kW, SOC kWh)."""
    return bss_euler(soc, setpoint, BSS.capacity_kwh, BSS.rated_kw, eta, dt_s)


def euler_soc_oracle(soc, setpoint, eta, dt_s, capacity, rated):
    """Independent one-step forward-Euler reference for the battery."""
    p = max(-rated, min(rated, setpoint))
    dt_h = dt_s / 3600.0
    if p > 0:
        p = min(p, (capacity - soc) / (eta * dt_h))
        soc_next = soc + p * eta * dt_h
    elif p < 0:
        p = max(p, -soc * eta / dt_h)
        soc_next = soc + p * dt_h / eta
    else:
        soc_next = soc
    return p, min(max(soc_next, 0.0), capacity)


class TestStepPv:
    def test_limit_binds(self):
        assert pv_output(10.0, 36.0, 3.5) == 3.5

    def test_below_limit_passes_through(self):
        assert pv_output(2.0, 36.0, 3.5) == 2.0

    def test_zero_available_no_limit(self):
        assert pv_output(0.0, 36.0, None) == 0.0

    def test_rated_caps_output(self):
        assert pv_output(50.0, 36.0, None) == 36.0

    def test_negative_available_rejected(self):
        with pytest.raises(GridInputError):
            pv_output(-1.0, 36.0, None)

    @given(avail=st.floats(0, 50), limits=st.lists(
        st.floats(0, 40), min_size=2, max_size=6))
    def test_monotone_curtailment(self, avail, limits):
        outs = [pv_output(avail, 36.0, l)
                for l in sorted(limits, reverse=True)]
        assert all(a >= b for a, b in zip(outs, outs[1:]))


class TestStepBss:
    def test_one_hour_charge_from_empty(self):
        expect_p, expect_soc = euler_soc_oracle(0.0, 14.0, 1.0, 3600, 22.0, 15.0)
        actual, soc = step_bss(0.0, 14.0, 3600)
        assert actual == pytest.approx(expect_p) == 14.0
        assert soc == pytest.approx(expect_soc) == 14.0

    def test_zero_setpoint_is_identity(self):
        assert step_bss(7.5, 0.0, 60) == (0.0, 7.5)

    def test_full_battery_refuses_charge(self):
        expect_p, _ = euler_soc_oracle(22.0, 14.0, 1.0, 3600, 22.0, 15.0)
        assert step_bss(22.0, 14.0, 3600)[0] == expect_p == 0.0

    def test_empty_battery_refuses_discharge(self):
        assert step_bss(0.0, -5.0, 1.0)[0] == 0.0

    def test_bad_dt_rejected(self):
        with pytest.raises(GridInputError):
            step_bss(11.0, 0.0, 0.0)

    @given(setpoints=st.lists(st.floats(-30, 30), min_size=1, max_size=200),
           soc0=st.floats(0, 22))
    @settings(max_examples=200)
    def test_soc_never_leaves_bounds(self, setpoints, soc0):
        soc = soc0
        for p in setpoints:
            actual, soc = step_bss(soc, p, 1.0)
            assert 0.0 <= soc <= BSS.capacity_kwh
            assert abs(actual) <= BSS.rated_kw + 1e-12

    @given(energy=st.floats(0.1, 10.0), soc0=st.floats(5.0, 12.0))
    def test_charge_discharge_round_trip_unity_efficiency(self, energy, soc0):
        hours = energy / 10.0
        _, soc = step_bss(soc0, 10.0, hours * 3600)
        _, soc = step_bss(soc, -10.0, hours * 3600)
        assert soc == pytest.approx(soc0, abs=1e-9)

    @given(soc=st.floats(2, 20), p=st.floats(-15, 15),
           eta=st.floats(0.7, 1.0), dt=st.floats(0.5, 3600))
    @settings(max_examples=300)
    def test_matches_euler_oracle(self, soc, p, eta, dt):
        actual, out_soc = step_bss(soc, p, dt, eta)
        op, osoc = euler_soc_oracle(soc, p, eta, dt, 22.0, 15.0)
        assert actual == pytest.approx(op, abs=1e-9)
        assert out_soc == pytest.approx(osoc, abs=1e-9)


class TestBusBalance:
    def test_symmetric(self):
        assert transformer_kw(5.0, 0.0, 5.0) == 0.0

    def test_attack_shape(self):
        assert transformer_kw(6.0, 14.0, 3.5) == pytest.approx(16.5)

    def test_all_zero(self):
        assert transformer_kw(0.0, 0.0, 0.0) == 0.0

    @given(load=st.floats(0, 20), pv=st.floats(0, 36), bss=st.floats(-15, 15))
    def test_conservation_identity(self, load, pv, bss):
        grid_kw = transformer_kw(load, bss, pv)
        assert abs(grid_kw + pv - load - bss) < 1e-9

    def test_over_rating_flag(self):
        # a 700 kW load alone is over the default 630 kVA transformer
        grid = GridSimulator(PvState(), BssState(), LoadState(rated_kw=1000.0),
                             TimeSeriesProfile((0.0,), array("d", [700.0])),
                             TimeSeriesProfile((0.0,), array("d", [0.0])),
                             clock=SimClock(epoch_s=0.0, step_s=1.0))
        grid.step(0, {})
        assert grid.events == [(0, "transformer-over-rating")]
