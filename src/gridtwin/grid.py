"""Physics of the emulated grid segment.

The ratings a scenario sets for the PV inverter, battery storage (BSS)
and load bank, and the pure float functions a grid step is made of: PV
curtailment, the battery's forward-Euler step and the power balance at
the substation transformer.
Sign convention: consumption-positive at the bus, BSS charging positive,
transformer import positive.
The clamps on the per-step path are comparisons, not builtin calls:
``min(a, b)`` is written ``b if b < a else a`` and ``max(a, b)`` is
written ``b if b > a else a``, which keep CPython's result for ties,
NaN, ``-0.0`` and ints, and cost a quarter of a builtin call under
CPython 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass


class GridInputError(ValueError):
    """Raised when a physics step is fed an out-of-domain input."""


@dataclass(frozen=True)
class PvState:
    rated_kw: float = 36.0          # nameplate


@dataclass(frozen=True)
class BssState:
    capacity_kwh: float = 22.0
    rated_kw: float = 15.0
    efficiency: float = 1.0         # round-trip charge/discharge factor
    initial_soc_pct: float = 50.0


@dataclass(frozen=True)
class LoadState:
    rated_kw: float = 20.0


def pv_output(available_kw: float, rated_kw: float, limit_kw: float | None) -> float:
    """Apply curtailment: output = min(available, rated, limit).

    The limit persists across steps until explicitly changed.
    """
    if available_kw < 0:
        raise GridInputError(f"negative PV availability: {available_kw}")
    out = rated_kw if rated_kw < available_kw else available_kw
    if limit_kw is not None:
        out = limit_kw if limit_kw < out else out
    return 0.0 if 0.0 > out else out


def bss_euler(soc_kwh: float, setpoint_kw: float, capacity_kwh: float,
              rated_kw: float, eta: float, dt_s: float) -> tuple[float, float]:
    """Advance the battery one step (forward Euler): (actual kW, SOC kWh).

    The setpoint is clamped to the rated power and to whatever keeps the
    SOC inside [0, capacity] over dt; setpoints are never rejected.
    """
    if dt_s <= 0:
        raise GridInputError(f"non-positive step: {dt_s}")
    if not 0 <= soc_kwh <= capacity_kwh:
        raise GridInputError(f"SOC out of range: {soc_kwh}")
    dt_h = dt_s / 3600.0
    actual = setpoint_kw if setpoint_kw < rated_kw else rated_kw
    low = -rated_kw  # max(low, actual): low wins ties and NaN
    actual = actual if actual > low else low
    if actual > 0:  # charging: soc' = soc + p * eta * dt, up to capacity
        room = (capacity_kwh - soc_kwh) / (eta * dt_h)
        actual = room if room < actual else actual
        soc = soc_kwh + actual * eta * dt_h
    elif actual < 0:  # discharging: soc' = soc + p * dt / eta, down to 0
        floor = -soc_kwh * eta / dt_h
        actual = floor if floor > actual else actual
        soc = soc_kwh + actual * dt_h / eta
    else:
        soc = soc_kwh
    soc = 0.0 if 0.0 > soc else soc
    return actual, capacity_kwh if capacity_kwh < soc else soc


def transformer_kw(demand_kw: float, bss_kw: float, pv_kw: float) -> float:
    return demand_kw + bss_kw - pv_kw

