"""GridSimulator.step, the grid physics as the scheduler runs it.

The simulator keeps the state that carries from step to step as three
floats and calls the float functions of ``gridtwin.grid`` directly.
Here it is checked against a reference loop written out on plain floats,
signal for signal and state for state, and a tiny run is checked to
build no state dataclass while it steps.
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from gridtwin import devices as dev
from gridtwin import grid as grid_mod
from gridtwin.cosim import SimClock
from gridtwin.grid import (BssState, LoadState, PvState, bss_euler,
                           pv_output, transformer_kw)
from gridtwin.profiles import TimeSeriesProfile, sample
from gridtwin.scenario import ScenarioConfig, build
from tests.helpers import write_tiny_config

_ABSENT = object()


def reference_run(pv, bss, load, load_profile, pv_profile, rated_kva, step_s,
                  boards):
    """The grid step on plain floats: each step's published signals, the
    events and the final (PV limit, BSS setpoint, SOC kWh).  boards[i] is
    what the grid reads as last step's signals at step i."""
    limit, setpoint = None, 0.0
    soc = bss.capacity_kwh * (bss.initial_soc_pct / 100)
    published, events = [], []
    for step, board in enumerate(boards):
        t_rel = step * step_s
        available = max(0.0, sample(pv_profile, t_rel))
        demand = min(max(0.0, sample(load_profile, t_rel)), load.rated_kw)
        signal = board.get(dev.SIG_PV_LIMIT, _ABSENT)
        if signal is not _ABSENT:
            limit = signal
        if board.get(dev.SIG_BSS_SETPOINT) is not None:
            setpoint = board[dev.SIG_BSS_SETPOINT]
        pv_kw = pv_output(available, pv.rated_kw, limit)
        bss_kw, soc = bss_euler(soc, setpoint, bss.capacity_kwh, bss.rated_kw,
                                bss.efficiency, step_s)
        grid_kw = transformer_kw(demand, bss_kw, pv_kw)
        if abs(grid_kw) > rated_kva:
            events.append((step, "transformer-over-rating"))
        published.append({
            dev.SIG_PV_OUTPUT: pv_kw,
            dev.SIG_PV_AVAILABLE: available,
            dev.SIG_BSS_ACTUAL: bss_kw,
            dev.SIG_BSS_SOC: 100.0 * (soc / bss.capacity_kwh),
            dev.SIG_LOAD_DEMAND: demand,
            dev.SIG_TRANSFORMER: grid_kw})
    return published, events, (limit, setpoint, soc)


def drive(grid, boards):
    """Step a GridSimulator directly; each step's published signals."""
    behavior = grid.handle().behavior
    return [behavior(step, board) for step, board in enumerate(boards)]


def clock(step_s=1.0):
    return SimClock(epoch_s=0.0, step_s=step_s)


rating = st.floats(0.1, 60.0, allow_nan=False)
# a published signal may be a number, None, or not published at all
signal = st.one_of(st.just(_ABSENT), st.none(),
                   st.floats(-40.0, 40.0, allow_nan=False))


@st.composite
def profiles(draw):
    times = draw(st.lists(st.floats(0.0, 600.0, allow_nan=False),
                          min_size=1, max_size=8, unique=True))
    values = draw(st.lists(st.floats(-5.0, 60.0, allow_nan=False),
                           min_size=len(times), max_size=len(times)))
    return TimeSeriesProfile(tuple(sorted(times)), array("d", values),
                             interpolation=draw(st.sampled_from(
                                 ("hold", "linear"))))


@st.composite
def plants(draw):
    pv = PvState(rated_kw=draw(rating))
    bss = BssState(capacity_kwh=draw(st.floats(0.5, 50.0)),
                   rated_kw=draw(rating),
                   efficiency=draw(st.floats(0.5, 1.0)),
                   initial_soc_pct=draw(st.floats(0.0, 100.0)))
    load = LoadState(rated_kw=draw(rating))
    return pv, bss, load


@st.composite
def boards(draw):
    board = {}
    for name in (dev.SIG_PV_LIMIT, dev.SIG_BSS_SETPOINT):
        value = draw(signal)
        if value is not _ABSENT:
            board[name] = value
    return board


class TestStepMatchesStateReference:
    @given(plant=plants(), load_profile=profiles(), pv_profile=profiles(),
           rated_kva=st.floats(0.5, 40.0),
           step_s=st.sampled_from((0.5, 1.0, 5.0, 60.0, 900.0)),
           inputs=st.lists(boards(), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_same_signals_events_and_states(self, plant, load_profile,
                                            pv_profile, rated_kva, step_s,
                                            inputs):
        pv, bss, load = plant
        grid = dev.GridSimulator(pv, bss, load, load_profile, pv_profile,
                                 rated_kva, clock=clock(step_s))
        got = drive(grid, inputs)
        want, events, state = reference_run(
            pv, bss, load, load_profile, pv_profile, rated_kva, step_s,
            inputs)
        assert got == want
        assert grid.events == events
        assert (grid.pv_limit_kw, grid.bss_setpoint_kw,
                grid.bss_soc_kwh) == state

    def test_states_read_before_a_step_are_the_config_states(self):
        pv, bss = PvState(rated_kw=2.0), BssState(capacity_kwh=8.0,
                                                  initial_soc_pct=25.0)
        load = LoadState(rated_kw=8.0)
        profile = TimeSeriesProfile((0.0,), array("d", [1.0]))
        grid = dev.GridSimulator(pv, bss, load, profile, profile,
                                 clock=clock())
        assert (grid.pv, grid.bss, grid.load) == (pv, bss, load)
        # no PV limit, an idle battery, and the initial charge in kWh
        assert (grid.pv_limit_kw, grid.bss_setpoint_kw,
                grid.bss_soc_kwh) == (None, 0.0, 2.0)


class TestOverRating:
    def test_event_on_exactly_the_steps_beyond_the_rating(self):
        # one knot per second: transformer = load - pv with the battery idle
        seconds = tuple(map(float, range(7)))
        load = TimeSeriesProfile(seconds, array(
            "d", (3.0, 6.0, 5.0, 1.0, 1.0, 9.0, 5.0)))
        pv = TimeSeriesProfile(seconds, array(
            "d", (0.0, 0.0, 0.0, 7.0, 5.0, 0.0, 10.0)))
        grid = dev.GridSimulator(PvState(), BssState(), LoadState(), load, pv,
                                 transformer_rated_kva=5.0, clock=clock())
        published = drive(grid, [{}] * 7)
        transformer = [p[dev.SIG_TRANSFORMER] for p in published]
        assert transformer == [3.0, 6.0, 5.0, -6.0, -4.0, 9.0, -5.0]
        # 6 kW import, 6 kW export and 9 kW import exceed 5 kVA; 5 kW
        # either way is at the rating, not over it
        assert grid.events == [(1, "transformer-over-rating"),
                               (3, "transformer-over-rating"),
                               (5, "transformer-over-rating")]


def test_run_builds_no_grid_dataclass(tmp_path, monkeypatch):
    sim = build(ScenarioConfig.load(write_tiny_config(tmp_path, attack=True)))
    built = []
    for cls in (grid_mod.PvState, grid_mod.BssState, grid_mod.LoadState):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    summary = sim.run()
    assert summary.steps == 300
    assert built == []
