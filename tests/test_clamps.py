"""The plant's clamps are comparisons that give what min() and max() give.

``min(a, b)`` is written ``b if b < a else a`` and ``max(a, b)`` is
written ``b if b > a else a`` on the per-step path (see ``gridtwin.grid``).
The properties below hold the per-step functions to the min()/max()
formulas they replaced, bit for bit and type for type, over draws rich in
NaN, signed zeros, infinities, ints and ties.  The guard keeps builtin
min()/max() calls out of the per-step functions.
"""

import ast
import inspect
import math
import struct
import textwrap
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridtwin import capture, devices, ems, grid
from gridtwin.cosim import SimClock
from gridtwin.grid import BssState, LoadState, PvState

# -- the formulas the comparisons replaced, kept as the reference ----------


def ref_pv_output(available_kw, rated_kw, limit_kw):
    if available_kw < 0:
        raise grid.GridInputError(f"negative PV availability: {available_kw}")
    out = min(available_kw, rated_kw)
    if limit_kw is not None:
        out = min(out, limit_kw)
    return max(out, 0.0)


def ref_bss_euler(soc_kwh, setpoint_kw, capacity_kwh, rated_kw, eta, dt_s):
    if dt_s <= 0:
        raise grid.GridInputError(f"non-positive step: {dt_s}")
    if not 0 <= soc_kwh <= capacity_kwh:
        raise grid.GridInputError(f"SOC out of range: {soc_kwh}")
    dt_h = dt_s / 3600.0
    actual = max(-rated_kw, min(rated_kw, setpoint_kw))
    if actual > 0:
        actual = min(actual, (capacity_kwh - soc_kwh) / (eta * dt_h))
        soc = soc_kwh + actual * eta * dt_h
    elif actual < 0:
        actual = max(actual, -soc_kwh * eta / dt_h)
        soc = soc_kwh + actual * dt_h / eta
    else:
        soc = soc_kwh
    return actual, min(max(soc, 0.0), capacity_kwh)


def ref_control_step(meter_kw, prev_setpoint_kw, policy):
    if abs(meter_kw) <= policy.deadband_kw:
        return None
    new = prev_setpoint_kw - meter_kw
    return max(-policy.bss_rated_kw, min(policy.bss_rated_kw, new))


def ref_profile_clamps(pv_sample, load_sample, load_rated_kw):
    return max(0.0, pv_sample), min(max(0.0, load_sample), load_rated_kw)


# -- bit-for-bit comparison ------------------------------------------------


def bits(x):
    """A value as its type and its double's bytes: 0.0 != -0.0 and two
    NaNs with the same payload are equal; None and tuples map over."""
    if x is None:
        return None
    if isinstance(x, tuple):
        return tuple(map(bits, x))
    return type(x), struct.pack("d", x)


def outcome(f, *args):
    try:
        return "value", bits(f(*args))
    except (grid.GridInputError, ZeroDivisionError) as exc:
        return "raised", type(exc)


SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf)
# few distinct values, so that ties (15 against 15.0, 0 against -0.0) are
# drawn often
TIES = st.sampled_from(SPECIAL + (0, 15, 15.0, -15, -15.0, 20, 3.5, -3.5))
NUMBERS = st.one_of(TIES, st.floats(), st.integers(-100, 100),
                    st.floats(-60, 60))
RATINGS = st.one_of(TIES, st.integers(0, 40), st.floats(0, 50))


def test_bits_tells_apart_what_equality_does_not():
    assert bits(0.0) != bits(-0.0)
    assert bits(15) != bits(15.0)
    assert bits(math.nan) == bits(math.nan)
    assert bits((1.0, None)) == ((float, struct.pack("d", 1.0)), None)


class TestSameAsMinMax:
    @given(available=NUMBERS, rated=RATINGS,
           limit=st.one_of(st.none(), NUMBERS))
    @example(available=math.nan, rated=36, limit=None)
    @example(available=5.0, rated=36.0, limit=math.nan)
    @example(available=-0.0, rated=36, limit=None)
    @settings(max_examples=400)
    def test_pv_output(self, available, rated, limit):
        assert outcome(grid.pv_output, available, rated, limit) == \
            outcome(ref_pv_output, available, rated, limit)

    @given(soc=st.one_of(TIES, st.floats(0, 22)), setpoint=NUMBERS,
           capacity=st.one_of(RATINGS, st.just(22.0)), rated=RATINGS,
           eta=st.one_of(TIES, st.floats(0, 1)),
           dt=st.one_of(TIES, st.floats(0, 3600), st.integers(1, 3600)))
    # max(-rated, min(rated, x)) at a NaN rating is -nan, and at a rating
    # of 0.0 it is -0.0: what a clamp with its roles swapped gets wrong
    @example(soc=0.0, setpoint=1.0, capacity=22.0, rated=math.nan, eta=1.0,
             dt=1.0)
    @example(soc=0.0, setpoint=0.0, capacity=22.0, rated=0.0, eta=1.0,
             dt=1.0)
    @settings(max_examples=400)
    def test_bss_euler(self, soc, setpoint, capacity, rated, eta, dt):
        args = (soc, setpoint, capacity, rated, eta, dt)
        assert outcome(grid.bss_euler, *args) == \
            outcome(ref_bss_euler, *args)

    @given(meter=NUMBERS, prev=NUMBERS, rated=RATINGS,
           deadband=st.one_of(TIES, st.floats(0, 1)))
    @example(meter=1.0, prev=0.0, rated=math.nan, deadband=0.1)
    @example(meter=1.0, prev=1.0, rated=0.0, deadband=0.1)
    @settings(max_examples=400)
    def test_control_step(self, meter, prev, rated, deadband):
        policy = ems.ControlPolicy(deadband_kw=deadband, bss_rated_kw=rated)
        assert bits(ems.control_step(meter, prev, policy)) == \
            bits(ref_control_step(meter, prev, policy))

    @given(pv_sample=NUMBERS, load_sample=NUMBERS, load_rated=RATINGS)
    @settings(max_examples=200)
    def test_grid_step_profile_clamps(self, pv_sample, load_sample,
                                      load_rated):
        pv_profile, load_profile = object(), object()
        drawn = {id(pv_profile): pv_sample, id(load_profile): load_sample}
        sim = devices.GridSimulator(
            PvState(), BssState(), LoadState(rated_kw=load_rated),
            load_profile, pv_profile, clock=SimClock(epoch_s=0.0))
        # the step reads sample() from the module, as perfbench patches it
        with mock.patch.object(devices, "sample",
                               lambda profile, t: drawn[id(profile)]):
            out = sim.step(0, {})
        assert bits((out[devices.SIG_PV_AVAILABLE],
                     out[devices.SIG_LOAD_DEMAND])) == \
            bits(ref_profile_clamps(pv_sample, load_sample, load_rated))


# -- the guard -------------------------------------------------------------

# the plant's functions that every step (or every control cycle) runs
PER_STEP = (grid.pv_output, grid.bss_euler, devices.GridSimulator.step,
            capture.Capture.record_sample, ems.control_step)


def min_max_calls(source: str) -> list[str]:
    """The calls of builtin min() or max() in source, by line."""
    return [f"line {node.lineno}: {node.func.id}()"
            for node in ast.walk(ast.parse(textwrap.dedent(source)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")]


def test_guard_finds_min_and_max_calls():
    source = ("    def f(a, b):\n"
              "        lo = min(a, b)\n"
              "        return max(lo, 0.0), sorted((a, b)), a.max()\n")
    assert min_max_calls(source) == ["line 2: min()", "line 3: max()"]


@pytest.mark.parametrize("func", PER_STEP, ids=lambda f: f.__qualname__)
def test_no_builtin_min_or_max_per_step(func):
    assert min_max_calls(inspect.getsource(func)) == []
