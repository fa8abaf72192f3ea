"""Physics of the emulated grid segment.

Pure state-transition functions for the PV inverter, battery storage
(BSS), load bank and the power balance at the substation transformer.
Sign convention: consumption-positive at the bus, BSS charging positive,
transformer import positive.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return abs(self.transformer_kw) > self.transformer_rated_kva


def step_pv(state: PvState) -> PvState:
    """Apply curtailment: output = min(available, rated, limit).

    The limit persists across steps until explicitly changed.
    """
    if state.available_kw < 0:
        raise GridInputError(f"negative PV availability: {state.available_kw}")
    out = min(state.available_kw, state.rated_kw)
    if state.limit_kw is not None:
        out = min(out, state.limit_kw)
    return PvState(available_kw=state.available_kw, rated_kw=state.rated_kw,
                   limit_kw=state.limit_kw, output_kw=max(out, 0.0))


def step_bss(state: BssState, dt_s: float) -> BssState:
    """Advance the battery one step (forward Euler).

    The setpoint is clamped to the rated power and to whatever keeps the
    SOC inside [0, capacity] over dt; setpoints are never rejected.
    """
    if dt_s <= 0:
        raise GridInputError(f"non-positive step: {dt_s}")
    if not 0 <= state.soc_kwh <= state.capacity_kwh:
        raise GridInputError(f"SOC out of range: {state.soc_kwh}")
    dt_h = dt_s / 3600.0
    eta = state.efficiency
    actual = max(-state.rated_kw, min(state.rated_kw, state.setpoint_kw))
    if actual > 0:  # charging: soc' = soc + p * eta * dt
        headroom_kw = (state.capacity_kwh - state.soc_kwh) / (eta * dt_h)
        actual = min(actual, headroom_kw)
        soc = state.soc_kwh + actual * eta * dt_h
    elif actual < 0:  # discharging: soc' = soc + p * dt / eta
        floor_kw = -state.soc_kwh * eta / dt_h
        actual = max(actual, floor_kw)
        soc = state.soc_kwh + actual * dt_h / eta
    else:
        soc = state.soc_kwh
    soc = min(max(soc, 0.0), state.capacity_kwh)
    return BssState(capacity_kwh=state.capacity_kwh, rated_kw=state.rated_kw,
                    soc_kwh=soc, setpoint_kw=state.setpoint_kw,
                    actual_kw=actual, efficiency=state.efficiency)


def bus_balance(load: LoadState, pv: PvState, bss: BssState,
                transformer_rated_kva: float = BusBalance.transformer_rated_kva
                ) -> BusBalance:
    """Power balance at the transformer for one instant."""
    return BusBalance(
        transformer_kw=load.demand_kw + bss.actual_kw - pv.output_kw,
        transformer_rated_kva=transformer_rated_kva,
    )
