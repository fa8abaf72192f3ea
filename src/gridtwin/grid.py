"""Physics of the emulated grid segment.

Pure float functions for the PV inverter, battery storage (BSS) and the
power balance at the substation transformer, and state-level wrappers.
Sign convention: consumption-positive at the bus, BSS charging positive,
transformer import positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class GridInputError(ValueError):
    """Raised when a physics step is fed an out-of-domain input."""


@dataclass(frozen=True)
class PvState:
    available_kw: float = 0.0       # power available from irradiance
    rated_kw: float = 36.0          # nameplate
    limit_kw: float | None = None   # active-power limit, None = unlimited
    output_kw: float = 0.0          # delivered power


@dataclass(frozen=True)
class BssState:
    capacity_kwh: float = 22.0
    rated_kw: float = 15.0
    soc_kwh: float = 11.0
    setpoint_kw: float = 0.0        # >0 charging, <0 discharging
    actual_kw: float = 0.0
    efficiency: float = 1.0         # round-trip charge/discharge factor


@dataclass(frozen=True)
class LoadState:
    demand_kw: float = 0.0
    rated_kw: float = 20.0


@dataclass(frozen=True)
class BusBalance:
    transformer_kw: float           # >0 = import from the overlaying grid
    transformer_rated_kva: float = 630.0

    @property
    def over_rating(self) -> bool:
        return over_rating(self.transformer_kw, self.transformer_rated_kva)


def pv_output(available_kw: float, rated_kw: float, limit_kw: float | None) -> float:
    """Apply curtailment: output = min(available, rated, limit).

    The limit persists across steps until explicitly changed.
    """
    if available_kw < 0:
        raise GridInputError(f"negative PV availability: {available_kw}")
    out = min(available_kw, rated_kw)
    if limit_kw is not None:
        out = min(out, limit_kw)
    return max(out, 0.0)


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
    actual = max(-rated_kw, min(rated_kw, setpoint_kw))
    if actual > 0:  # charging: soc' = soc + p * eta * dt, up to capacity
        actual = min(actual, (capacity_kwh - soc_kwh) / (eta * dt_h))
        soc = soc_kwh + actual * eta * dt_h
    elif actual < 0:  # discharging: soc' = soc + p * dt / eta, down to 0
        actual = max(actual, -soc_kwh * eta / dt_h)
        soc = soc_kwh + actual * dt_h / eta
    else:
        soc = soc_kwh
    return actual, min(max(soc, 0.0), capacity_kwh)


def transformer_kw(demand_kw: float, bss_kw: float, pv_kw: float) -> float:
    return demand_kw + bss_kw - pv_kw


def over_rating(kw: float, rated_kva: float) -> bool:
    return abs(kw) > rated_kva


def step_pv(state: PvState) -> PvState:
    return replace(state, output_kw=pv_output(
        state.available_kw, state.rated_kw, state.limit_kw))


def step_bss(state: BssState, dt_s: float) -> BssState:
    actual, soc = bss_euler(state.soc_kwh, state.setpoint_kw, state.capacity_kwh,
                            state.rated_kw, state.efficiency, dt_s)
    return replace(state, soc_kwh=soc, actual_kw=actual)


def bus_balance(load: LoadState, pv: PvState, bss: BssState,
                transformer_rated_kva: float = BusBalance.transformer_rated_kva
                ) -> BusBalance:
    """Power balance at the transformer for one instant."""
    return BusBalance(transformer_kw(load.demand_kw, bss.actual_kw,
                                     pv.output_kw), transformer_rated_kva)
