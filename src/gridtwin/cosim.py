"""Discrete-time co-simulation scheduler.

Registered simulators advance in lockstep with two-phase semantics:
during a step every simulator sees only the signals published in the
*previous* step; all new outputs are published atomically afterwards.
This makes results independent of registration order.

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
        n = max(0, math.ceil((t_s - self.epoch_s) / self.step_s))
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


class StepContext:
    """What one simulator sees during its compute phase."""

    def __init__(self, clock: SimClock, board: dict, staged: dict, outputs):
        self.clock = clock
        self._board = board
        self._staged = staged
        self._outputs = outputs

    @property
    def step(self) -> int:
        return self.clock.now

    def get(self, signal: str, default=None):
        """Value published in the previous step (or default)."""
        return self._board.get(signal, default)

    def publish(self, signal: str, value) -> None:
        if signal not in self._outputs:
            raise SignalConflictError(f"undeclared output signal {signal!r}")
        self._staged[signal] = value


@dataclass
class SimulatorHandle:
    id: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    behavior: Callable[[StepContext], None] = lambda ctx: None


class Scheduler:
    def __init__(self, clock: SimClock):
        self.clock = clock
        self._sims: list[SimulatorHandle] = []
        self._producers: dict[str, str] = {}
        self._hooks: list[Callable[[int], None]] = []
        self._board: dict[str, Any] = {}
        # most recently published values, read-only (for hooks/inspection)
        self.signals = MappingProxyType(self._board)
        self._started = False
        # one context per simulator, made when the run starts
        self._contexts: list[tuple[SimulatorHandle, StepContext]] = []

    def register(self, handle: SimulatorHandle) -> str:
        if self._started:
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
        if self._started:
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
        staged: dict[str, Any] = {}
        if not self._started:
            self._check_inputs()
            self._contexts = [
                (sim, StepContext(self.clock, self._board, staged, sim.outputs))
                for sim in self._sims]
            self._started = True
        for sim, ctx in self._contexts:
            ctx._staged = staged
            try:
                sim.behavior(ctx)
            except SchedulerError:
                raise
            except Exception as exc:  # noqa: BLE001 - diagnostic wrapper
                raise SimulatorStepError(sim.id, self.clock.now, exc) from exc
        self._board.update(staged)
        for hook in self._hooks:
            hook(self.clock.now)
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
