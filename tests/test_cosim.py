import dataclasses

import pytest

from gridtwin.cosim import (DuplicateIdError, HookError, LifecycleError,
                            Scheduler, SignalConflictError, SimClock,
                            SimulatorHandle, SimulatorStepError)

EPOCH = 9 * 3600 + 15 * 60  # 09:15:00


def make_scheduler(step_s=1.0):
    return Scheduler(SimClock(epoch_s=EPOCH, step_s=step_s))


def counter(name, out_signal):
    state = {"n": 0}

    def step(step, signals):
        state["n"] += 1
        return {out_signal: state["n"]}
    return SimulatorHandle(id=name, outputs=(out_signal,), behavior=step)


class TestRegistration:
    def test_first_registration_ok(self):
        s = make_scheduler()
        assert s.register(SimulatorHandle(id="pv", outputs=("pv.power",))) == "pv"

    def test_duplicate_id(self):
        s = make_scheduler()
        s.register(SimulatorHandle(id="pv"))
        with pytest.raises(DuplicateIdError):
            s.register(SimulatorHandle(id="pv"))

    def test_second_producer_conflicts(self):
        s = make_scheduler()
        s.register(SimulatorHandle(id="a", outputs=("pv.power",)))
        with pytest.raises(SignalConflictError):
            s.register(SimulatorHandle(id="b", outputs=("pv.power",)))

    def test_register_after_start_fails(self):
        s = make_scheduler()
        s.register(SimulatorHandle(id="a"))
        s.step_all()
        with pytest.raises(LifecycleError):
            s.register(SimulatorHandle(id="late"))

    def test_unresolvable_input(self):
        s = make_scheduler()
        s.register(SimulatorHandle(id="a", inputs=("missing",)))
        with pytest.raises(SignalConflictError):
            s.step_all()


class TestStepAll:
    def test_one_record_per_signal(self):
        s = make_scheduler()
        s.register(counter("a", "sig"))
        s.register(SimulatorHandle(id="b", inputs=("sig",)))
        assert len(s.step_all()) == 1

    def test_zero_simulators(self):
        s = make_scheduler()
        assert s.step_all() == {}
        assert s.clock.now == 1

    def test_failure_names_simulator(self):
        s = make_scheduler()

        def boom(step, signals):
            raise RuntimeError("kaput")
        s.register(SimulatorHandle(id="flaky", behavior=boom))
        with pytest.raises(SimulatorStepError, match="flaky"):
            s.step_all()

    def test_failing_hook_names_hook_and_step(self):
        s = make_scheduler()

        def flush(step):
            if step == 1:
                raise OSError("disk full")
        s.add_hook(flush)
        s.step_all()
        with pytest.raises(HookError, match=r"flush.* at step 1: disk full"):
            s.step_all()

    def test_causality_one_step_delay(self):
        s = make_scheduler()
        seen = []
        s.register(counter("prod", "sig"))
        s.register(SimulatorHandle(
            id="cons", inputs=("sig",),
            behavior=lambda step, signals: seen.append(signals.get("sig"))))
        for _ in range(3):
            s.step_all()
        assert seen == [None, 1, 2]

    def test_each_step_returns_its_own_signals(self):
        s = make_scheduler()

        def once(step, signals):
            if step == 0:
                return {"sig": 7}
        s.register(SimulatorHandle(id="once", outputs=("sig",),
                                   behavior=once))
        first = s.step_all()
        assert s.step_all() == {}
        assert first == {"sig": 7}  # not cleared by the next step
        assert s.signals["sig"] == 7

    def test_undeclared_output_rejected(self):
        s = make_scheduler()
        s.register(SimulatorHandle(
            id="sly", behavior=lambda step, signals: {"sneaky": 1}))
        with pytest.raises(SignalConflictError):
            s.step_all()

    @pytest.mark.parametrize("published", [None, {}])
    def test_nothing_returned_publishes_nothing(self, published):
        s = make_scheduler()
        s.register(SimulatorHandle(id="idle", outputs=("sig",),
                                   behavior=lambda step, signals: published))
        assert s.step_all() == {}
        assert dict(s.signals) == {}

    def test_refused_step_publishes_nothing(self):
        s = make_scheduler()
        s.register(counter("a", "sig"))

        def sly(step, signals):
            return {"mine": step} if step == 0 else {"mine": 1, "sneaky": 2}
        s.register(SimulatorHandle(id="sly", outputs=("mine",),
                                   behavior=sly))
        s.step_all()
        with pytest.raises(SignalConflictError, match="sneaky"):
            s.step_all()
        # step 0's signals: neither sly's declared signal nor the one a
        # published before sly ran in the refused step
        assert dict(s.signals) == {"sig": 1, "mine": 0}
        assert s.clock.now == 1


class TestRun:
    def test_step_count_arithmetic(self):
        s = make_scheduler()
        assert s.run(EPOCH + 60).steps == 60

    def test_until_equals_epoch(self):
        s = make_scheduler()
        assert s.run(EPOCH).steps == 0

    def test_full_day_step_count(self):
        # 09:15 -> 15:00 at 1 s
        s = make_scheduler()
        assert s.clock.step_at(15 * 3600) == (15 * 3600 - EPOCH) == 20700

    def test_hooks_run_after_publish(self):
        s = make_scheduler()
        s.register(counter("a", "sig"))
        seen = []
        s.add_hook(lambda step: seen.append((step, s.signals.get("sig"))))
        s.run(EPOCH + 2)
        assert seen == [(0, 1), (1, 2)]


class TestStepsFor:
    @pytest.mark.parametrize("step_s, duration_s, steps", [
        (1.0, 0.2, 1),      # at least one step
        (1.0, 0.0, 1),
        (0.7, 14.0, 20),
        (0.7, 21.0, 30),    # 21 / 0.7 is 30.000000000000004
        (1.0, 2.5, 2),      # ties round half to even
        (1.0, 3.5, 4),
        (0.5, 1.25, 2)])
    def test_duration_to_steps(self, step_s, duration_s, steps):
        assert SimClock(epoch_s=EPOCH, step_s=step_s).steps_for(
            duration_s) == steps


class Box:
    """Stands in for a host: what a waiting simulator's work sits in."""

    def __init__(self):
        self.inbox = []


def deliver_on(s, box, steps):
    """A hook that puts work in the box at the end of the step before each
    of the given steps, as the network transport does."""
    s.add_hook(lambda step: box.inbox.append(step + 1)
               if step + 1 in steps else None)


def waiter(name, box, outputs=(), publish=lambda step: None):
    """A simulator waiting on box: takes its work, logs each step it ran."""
    ran = []

    def step(step, signals):
        ran.append(step)
        box.inbox.clear()
        return publish(step)
    return SimulatorHandle(id=name, outputs=outputs, behavior=step,
                           waits_on=box), ran


class TestWaiting:
    @pytest.mark.parametrize("start", [0, 7])
    def test_runs_on_the_first_step_and_when_work_waits(self, start):
        s = make_scheduler()
        s.clock.now = start
        box = Box()
        handle, ran = waiter("dev", box)
        s.register(handle)
        s.register(counter("always", "n"))
        deliver_on(s, box, {start + 3, start + 4, start + 9})
        for _ in range(12):
            s.step_all()
        assert ran == [start, start + 3, start + 4, start + 9]
        assert s.signals["n"] == 12  # one that does not wait runs every step

    def test_work_left_in_the_inbox_wakes_it_again(self):
        s = make_scheduler()
        box = Box()
        ran = []
        s.register(SimulatorHandle(
            id="dev", waits_on=box,
            behavior=lambda step, signals: ran.append(step)))
        deliver_on(s, box, {2})
        for _ in range(5):
            s.step_all()
        assert ran == [0, 2, 3, 4]

    def test_skipped_simulator_keeps_its_signals_on_the_board(self):
        s = make_scheduler()
        box = Box()
        handle, _ = waiter("dev", box, outputs=("dev.out",),
                           publish=lambda step: {"dev.out": step * 10})
        s.register(handle)
        seen = []
        s.register(SimulatorHandle(
            id="cons", inputs=("dev.out",),
            behavior=lambda step, signals: seen.append(signals["dev.out"])
            if step else None))
        deliver_on(s, box, {4})
        published = [s.step_all() for _ in range(7)]
        assert published == [{"dev.out": 0}, {}, {}, {}, {"dev.out": 40},
                             {}, {}]
        assert seen == [0, 0, 0, 0, 40, 40]

    def test_woken_simulator_undeclared_signal_refused(self):
        s = make_scheduler()
        box = Box()
        handle, _ = waiter("sly", box, outputs=("mine",),
                           publish=lambda step: {"sneaky": 1} if step
                           else {"mine": 0})
        s.register(handle)
        deliver_on(s, box, {3})
        for _ in range(3):
            s.step_all()
        with pytest.raises(SignalConflictError, match="sly.*sneaky"):
            s.step_all()
        assert dict(s.signals) == {"mine": 0}

    def test_woken_simulator_failure_names_it(self):
        s = make_scheduler()
        box = Box()

        def boom(step, signals):
            if step:
                raise RuntimeError("kaput")
        s.register(SimulatorHandle(id="flaky", behavior=boom, waits_on=box))
        deliver_on(s, box, {2})
        s.step_all()
        s.step_all()
        with pytest.raises(SimulatorStepError,
                           match="'flaky' failed at step 2: kaput") as err:
            s.step_all()
        assert (err.value.sim_id, err.value.step) == ("flaky", 2)

    def test_replacing_the_behavior_keeps_what_it_waits_on(self):
        # how a tracer wraps a behaviour
        s = make_scheduler()
        box = Box()
        handle, ran = waiter("dev", box)
        calls = []

        def traced(step, signals):
            calls.append(step)
            return handle.behavior(step, signals)
        wrapped = dataclasses.replace(handle, behavior=traced)
        assert wrapped.waits_on is box
        s.register(wrapped)
        deliver_on(s, box, {2})
        for _ in range(4):
            s.step_all()
        assert calls == ran == [0, 2]


def build_chain(order, wakes=None):
    """Two simulators exchanging values; registration order parametrized.
    Each one named in wakes waits on a box filled for its steps there."""
    s = make_scheduler()
    log = []
    wakes = wakes or {}
    boxes = {"a": Box(), "b": Box()}

    def a_step(step, signals):
        boxes["a"].inbox.clear()
        return {"a.out": (signals.get("b.out") or 0) + 1}

    def b_step(step, signals):
        boxes["b"].inbox.clear()
        val = (signals.get("a.out") or 0) * 2
        log.append((step, val))
        return {"b.out": val}

    handles = {"a": SimulatorHandle(id="a", inputs=("b.out",), outputs=("a.out",),
                                    behavior=a_step,
                                    waits_on=boxes["a"] if "a" in wakes else None),
               "b": SimulatorHandle(id="b", inputs=("a.out",), outputs=("b.out",),
                                    behavior=b_step,
                                    waits_on=boxes["b"] if "b" in wakes else None)}
    for name in order:
        s.register(handles[name])
    for name, steps in wakes.items():
        deliver_on(s, boxes[name], steps)
    s.run(EPOCH + 10)
    return log


class TestDeterminism:
    def test_identical_runs_identical_transcripts(self):
        def one_run():
            s = make_scheduler()
            s.register(counter("a", "x"))
            s.register(counter("b", "y"))
            return [s.step_all() for _ in range(s.clock.step_at(EPOCH + 50))]
        assert one_run() == one_run()

    def test_registration_order_does_not_change_signals(self):
        assert build_chain("ab") == build_chain("ba")

    @pytest.mark.parametrize("wakes", [
        {"a": {2, 3, 7}, "b": {3, 5, 8}}, {"a": {4}}])
    def test_order_does_not_change_signals_of_waiting_simulators(self, wakes):
        log = build_chain("ab", wakes)
        assert log == build_chain("ba", wakes)
        assert [step for step, _ in log] == sorted(
            {0} | wakes.get("b", set(range(10))))
