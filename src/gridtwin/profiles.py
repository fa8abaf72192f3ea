"""Time-series demand/generation profiles.

Profiles stand in for the scaled-down reference-grid measurements that
the lab replays to its DC supplies and load bank.  CSV format: UTF-8,
header ``t_s,value_kw``, one row per knot, ``.`` decimal separator.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass, replace


class ProfileError(ValueError):
    """Malformed profile input."""


@dataclass(frozen=True)
class ScalingRule:
    factor: float = 1.0
    clamp_max_kw: float | None = None

    def __post_init__(self):
        if self.factor <= 0:
            raise ProfileError(f"scaling factor must be > 0, got {self.factor}")


@dataclass(frozen=True)
class TimeSeriesProfile:
    points: tuple[tuple[float, float], ...]  # (t_s since scenario epoch, kW)
    interpolation: str = "hold"              # "hold" | "linear"

    def __post_init__(self):
        if self.interpolation not in ("hold", "linear"):
            raise ProfileError(f"unknown interpolation: {self.interpolation}")
        prev = None
        for t, v in self.points:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ProfileError(f"non-finite profile point ({t}, {v})")
            if prev is not None and t <= prev:
                raise ProfileError(
                    f"timestamps must be strictly increasing ({prev} then {t})")
            prev = t

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)


def load_profile(source, interpolation: str = "hold") -> TimeSeriesProfile:
    """Parse a profile CSV from a byte stream, bytes or text."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    else:
        text = source
    lines = text.splitlines()
    if not lines:
        raise ProfileError("no data rows")
    start = 1 if lines and lines[0].strip().lower().replace(" ", "") == "t_s,value_kw" else 0
    points = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ProfileError(f"line {lineno}: expected 't,value', got {line!r}")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ProfileError(f"line {lineno}: not numeric: {line!r}") from None
        if points and t <= points[-1][0]:
            raise ProfileError(
                f"line {lineno}: timestamp {t} not after {points[-1][0]}")
        points.append((t, v))
    if not points:
        raise ProfileError("no data rows")
    return TimeSeriesProfile(points=tuple(points), interpolation=interpolation)


def sample(profile: TimeSeriesProfile, t: float) -> float:
    """Value at time t; constant extension before/after the knot range."""
    pts = profile.points
    if not pts:
        raise ProfileError("empty profile")
    if t <= pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    i = bisect_right(profile.times, t) - 1
    t0, v0 = pts[i]
    if profile.interpolation == "hold":
        return v0
    t1, v1 = pts[i + 1]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def scale(profile: TimeSeriesProfile, rule: ScalingRule) -> TimeSeriesProfile:
    """Multiply every value by the factor, then clamp if configured."""
    out = []
    for t, v in profile.points:
        v = v * rule.factor
        if rule.clamp_max_kw is not None:
            v = min(v, rule.clamp_max_kw)
        out.append((t, v))
    return replace(profile, points=tuple(out))
