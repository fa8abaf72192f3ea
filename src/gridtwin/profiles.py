"""Time-series demand/generation profiles.

Profiles stand in for the scaled-down reference-grid measurements that
the lab replays to its DC supplies and load bank.  CSV format: UTF-8,
header ``t_s,value_kw``, one row per knot, ``.`` decimal separator.

A profile holds its knots as two flat columns, the times as a tuple of
floats (for bisection) and the values as an ``array('d')``: 40 bytes a
knot.  ``TimeSeriesProfile.points`` is a read-only view of them as
``(t, value)`` pairs.
"""

from __future__ import annotations

import io
import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from operator import lt, mul


class ProfileError(ValueError):
    """Malformed profile input."""


@dataclass(frozen=True)
class ScalingRule:
    factor: float = 1.0
    clamp_max_kw: float | None = None

    def __post_init__(self):
        if self.factor <= 0:
            raise ProfileError(f"scaling factor must be > 0, got {self.factor}")


class PointView(Sequence):
    """Checked knot columns as (t, value) pairs, each made when it is read.
    Equal to the tuple of those pairs."""

    def __init__(self, times: tuple[float, ...], values: array):
        self.times, self.values = times, values

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(zip(self.times[i], self.values[i]))
        return self.times[i], self.values[i]

    def __iter__(self):
        return zip(self.times, self.values)

    def __eq__(self, other):
        if isinstance(other, PointView):
            return self.times == other.times and self.values == other.values
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class TimeSeriesProfile:
    points: Sequence[tuple[float, float]]  # (t_s since scenario epoch, kW)
    interpolation: str = "hold"            # "hold" | "linear"
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    values: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.interpolation not in ("hold", "linear"):
            raise ProfileError(f"unknown interpolation: {self.interpolation}")
        points = self.points
        if not isinstance(points, PointView):
            prev = None
            for t, v in points:
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise ProfileError(f"non-finite profile point ({t}, {v})")
                if prev is not None and t <= prev:
                    raise ProfileError(
                        f"timestamps must be strictly increasing ({prev} then {t})")
                prev = t
            points = PointView(tuple(t for t, _ in points),
                               array("d", (v for _, v in points)))
            object.__setattr__(self, "points", points)
        object.__setattr__(self, "times", points.times)
        object.__setattr__(self, "values", points.values)


def _body_start(lines: list[str]) -> int:
    """1 if the first line is the header, else 0."""
    return 1 if lines and lines[0].strip().lower().replace(" ", "") == "t_s,value_kw" else 0


def _columns(text: str):
    """The times and values of a body whose lines each hold one comma and
    two numbers, strictly increasing and finite, parsed in one pass at C
    speed; None for any other body."""
    lines = text.splitlines()
    start = _body_start(lines)
    if set(map(str.count, islice(lines, start, None), repeat(","))) != {1}:
        return None  # blank lines too: they hold no comma
    # each object is dropped once the next is made, so the memory peak
    # holds the fields but not the lines too
    body = ",".join(islice(lines, start, None))
    del lines
    fields = body.split(",")
    del body
    try:
        times = tuple(map(float, islice(fields, 0, None, 2)))
        values = array("d", map(float, islice(fields, 1, None, 2)))
    except ValueError:
        return None
    if (all(map(math.isfinite, times)) and all(map(math.isfinite, values))
            and all(map(lt, times, islice(times, 1, None)))):
        return times, values
    return None


def load_profile(source, interpolation: str = "hold") -> TimeSeriesProfile:
    """Parse a profile CSV from a byte stream, bytes or text."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    else:
        text = source
    columns = _columns(text)
    if columns is not None:
        return TimeSeriesProfile(PointView(*columns), interpolation)
    # read again line by line, so that the first bad line is the one named
    lines = text.splitlines()
    if not lines:
        raise ProfileError("no data rows")
    start = _body_start(lines)
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
    times, values = profile.times, profile.values
    if not times:
        raise ProfileError("empty profile")
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    i = bisect_right(times, t) - 1
    if profile.interpolation == "hold":
        return values[i]
    t0, v0 = times[i], values[i]
    return v0 + (values[i + 1] - v0) * (t - t0) / (times[i + 1] - t0)


def scale(profile: TimeSeriesProfile, rule: ScalingRule) -> TimeSeriesProfile:
    """Multiply every value by the factor, then clamp if configured."""
    values = map(mul, profile.values, repeat(rule.factor))
    if rule.clamp_max_kw is not None:
        values = map(min, values, repeat(rule.clamp_max_kw))
    values = array("d", values)
    if not all(map(math.isfinite, values)):  # a product may overflow
        return replace(profile, points=tuple(zip(profile.times, values)))
    return replace(profile, points=PointView(profile.times, values))
