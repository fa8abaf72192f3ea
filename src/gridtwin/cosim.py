"""Discrete-time co-simulation scheduler.

Registered simulators advance in lockstep with two-phase semantics.  A
simulator's ``behavior(step, signals)`` sees in ``signals`` only what was
published in the *previous* step, and returns what it publishes in this
one: a dict of its declared outputs, or None.  All new outputs are
published together after every simulator has run, so results do not
depend on registration order.

A simulator whose handle names ``waits_on``, an object whose ``inbox``
holds its work (a network host), runs on the run's first step and after
that only on steps on which that inbox is non-empty.  A skipped
simulator is not called and publishes nothing, so its last published
values stay on the board.  The check is an attribute read in the step
loop, not a call: an idle device step costs only a few times an empty
call, so a call per skipped simulator would give back most of the skip.

End-of-step hooks run after publication in a fixed order; the network
transport and the capture recorder live there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable


class SchedulerError(Exception):
    pass


class DuplicateIdError(SchedulerError):
    pass


class SignalConflictError(SchedulerError):
    pass


class LifecycleError(SchedulerError):
    pass


class SimulatorStepError(SchedulerError):
    """A simulator raised during its step; carries the simulator id."""

    def __init__(self, sim_id: str, step: int, cause: BaseException):
        super().__init__(f"simulator {sim_id!r} failed at step {step}: {cause}")
        self.sim_id = sim_id
        self.step = step


class HookError(SchedulerError):
    """An end-of-step hook raised; names the hook and the step."""

    def __init__(self, hook: Callable, step: int, cause: BaseException):
        name = getattr(hook, "__qualname__", repr(hook))
        super().__init__(f"hook {name!r} failed at step {step}: {cause}")


@dataclass
class SimClock:
    epoch_s: float          # scenario start, seconds since midnight
    step_s: float = 1.0
    now: int = 0            # current step index

    def __post_init__(self):
        if self.step_s <= 0:
            raise SchedulerError(f"step_s must be > 0, got {self.step_s}")

    def time_s(self, step: int) -> float:
        """Wall-clock seconds since midnight at the given step."""
        return self.epoch_s + step * self.step_s

    def steps_for(self, duration_s: float) -> int:
        """A duration as a whole number of steps: at least one, rounded
        half to even."""
        return max(1, round(duration_s / self.step_s))

    def step_at(self, t_s: float) -> int:
        """The first step whose time_s is at or after a time-of-day (0
        before the start)."""
        q = (t_s - self.epoch_s) / self.step_s
        if q >= 2**53:  # floats skip step indices here; the loops would hang
            raise OverflowError(f"{q:g} steps of {self.step_s:g} s")
        n = max(0, math.ceil(q))
        # the quotient can round across an integer (21 s / 0.7 s gives
        # 30.000000000000004); the step times decide, as they do for the
        # attack_active labels
        while n > 0 and self.time_s(n - 1) >= t_s:
            n -= 1
        while self.time_s(n) < t_s:
            n += 1
        return n


@dataclass(frozen=True)
class RunSummary:
    steps: int
    wall_s: float


@dataclass
class SimulatorHandle:
    id: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    # behavior(step, last step's signals) -> the signals it publishes in
    # this step, each one of outputs, or None
    behavior: Callable[..., dict | None] = lambda step, signals: None
    # an object whose .inbox holds this simulator's work; None: run on
    # every step
    waits_on: Any = None


class Scheduler:
    def __init__(self, clock: SimClock):
        self.clock = clock
        self._sims: list[SimulatorHandle] = []
        self._producers: dict[str, str] = {}
        self._hooks: list[Callable[[int], None]] = []
        self._board: dict[str, Any] = {}
        # most recently published values, read-only (for hooks/inspection)
        self.signals = MappingProxyType(self._board)
        # (simulator, its declared outputs, what it waits on), made when
        # the run starts, and the step it starts at
        self._declared: list[tuple] | None = None
        self._first_step = 0

    def register(self, handle: SimulatorHandle) -> str:
        if self._declared is not None:
            raise LifecycleError("cannot register after the run has started")
        if any(s.id == handle.id for s in self._sims):
            raise DuplicateIdError(f"duplicate simulator id {handle.id!r}")
        for sig in handle.outputs:
            if sig in self._producers:
                raise SignalConflictError(
                    f"signal {sig!r} already produced by {self._producers[sig]!r}")
            self._producers[sig] = handle.id
        self._sims.append(handle)
        return handle.id

    def add_hook(self, fn: Callable[[int], None]) -> None:
        """End-of-step hook, run after publication in registration order."""
        if self._declared is not None:
            raise LifecycleError("cannot add hooks after the run has started")
        self._hooks.append(fn)

    def _check_inputs(self) -> None:
        for sim in self._sims:
            for sig in sim.inputs:
                if sig not in self._producers:
                    raise SignalConflictError(
                        f"simulator {sim.id!r} consumes {sig!r}, which has no producer")

    def step_all(self) -> dict[str, Any]:
        """Advance one step; the signals published in it."""
        if self._declared is None:
            self._check_inputs()
            self._declared = [(sim, frozenset(sim.outputs), sim.waits_on)
                              for sim in self._sims]
            self._first_step = self.clock.now
        step, signals = self.clock.now, self.signals
        started = step != self._first_step
        staged: dict[str, Any] = {}
        for sim, outputs, waits_on in self._declared:
            if waits_on is not None and started and not waits_on.inbox:
                continue
            try:
                published = sim.behavior(step, signals)
            except Exception as exc:  # noqa: BLE001 - diagnostic wrapper
                raise SimulatorStepError(sim.id, step, exc) from exc
            if published:
                if not outputs.issuperset(published):
                    raise SignalConflictError(
                        f"simulator {sim.id!r} published undeclared "
                        f"signals {sorted(set(published) - outputs)}")
                staged.update(published)
        self._board.update(staged)
        for hook in self._hooks:
            try:
                hook(step)
            except Exception as exc:  # noqa: BLE001 - diagnostic wrapper
                raise HookError(hook, step, exc) from exc
        self.clock.now += 1
        return staged

    def run(self, until_s: float, realtime: bool = False) -> RunSummary:
        """Advance until the given time-of-day (seconds since midnight)."""
        n = self.clock.step_at(until_s)
        t0 = time.monotonic()
        start = self.clock.now
        while self.clock.now < n:
            self.step_all()
            if realtime:
                ahead = (self.clock.now - start) * self.clock.step_s \
                    - (time.monotonic() - t0)
                if ahead > 0:
                    time.sleep(ahead)
        return RunSummary(steps=self.clock.now - start,
                          wall_s=time.monotonic() - t0)
