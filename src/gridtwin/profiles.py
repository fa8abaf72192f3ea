"""Time-series demand/generation profiles.

Profiles stand in for the scaled-down reference-grid measurements that
the lab replays to its DC supplies and load bank.  CSV format: UTF-8
(a byte-order mark skipped), header ``t_s,value_kw``, one row per knot,
``.`` decimal separator.

A profile is its knots in two flat columns, the times as a tuple of
floats (for bisection) and the values as an ``array('d')``: 40 bytes a
knot.  Its constructor is the one check of the knots; the loader scales
the parsed values first (times ``factor``, then capped at
``clamp_max_kw``), so each knot is checked once.  ``points`` is derived.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import lt, mul


class ProfileError(ValueError):
    """Malformed profile input."""


@dataclass(frozen=True)
class TimeSeriesProfile:
    times: tuple[float, ...]               # t_s since scenario epoch
    values: array = field(hash=False)      # kW, array('d')
    interpolation: str = "hold"            # "hold" | "linear"

    def __post_init__(self):
        times, values = self.times, self.values
        if self.interpolation not in ("hold", "linear"):
            raise ProfileError(f"unknown interpolation: {self.interpolation}")
        if len(times) != len(values):
            raise ProfileError(f"{len(times)} times but {len(values)} values")
        if not times:
            raise ProfileError("empty profile")
        # at C speed: NaN fails every comparison, so increasing times
        # between finite ends are finite; so are the terms of a finite sum
        if (math.isfinite(times[0]) and math.isfinite(times[-1])
                and all(map(lt, times, islice(times, 1, None)))
                and math.isfinite(sum(values))):
            return
        # name the first bad knot; there is none if only the sum overflowed
        prev = None
        for t, v in zip(times, values):
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ProfileError(f"non-finite profile point ({t}, {v})")
            if prev is not None and t <= prev:
                raise ProfileError(
                    f"timestamps must be strictly increasing ({prev} then {t})")
            prev = t

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The knots as (t, value) pairs, made when read."""
        return tuple(zip(self.times, self.values))


def _body_start(lines: list[str]) -> int:
    """1 if the first line is the header, else 0."""
    return 1 if lines and lines[0].strip().lower().replace(" ", "") == "t_s,value_kw" else 0


def _columns(text: str):
    """The times and values of a body whose lines each hold one comma and
    two numbers, parsed in one pass at C speed; None for any other body."""
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
        return (tuple(map(float, islice(fields, 0, None, 2))),
                array("d", map(float, islice(fields, 1, None, 2))))
    except ValueError:
        return None


def _scaled(times, values, interpolation, factor, clamp_max_kw):
    if factor <= 0:
        raise ProfileError(f"scaling factor must be > 0, got {factor}")
    raw = values
    if factor != 1.0:  # v * 1.0 is v for every double, -0.0 and nan too
        values = array("d", map(mul, values, repeat(factor)))
    if clamp_max_kw is not None and clamp_max_kw < max(values):
        TimeSeriesProfile(times, raw, interpolation)  # refuses an inf as read
        values = array("d", [clamp_max_kw if clamp_max_kw < v else v
                             for v in values])
    return TimeSeriesProfile(times, values, interpolation)


def load_profile(source, interpolation: str = "hold", factor: float = 1.0,
                 clamp_max_kw: float | None = None) -> TimeSeriesProfile:
    """Parse a profile CSV from bytes (UTF-8, a byte-order mark skipped)
    or text; each value times factor, then capped at clamp_max_kw if set."""
    text = source.decode("utf-8-sig") if isinstance(source, bytes) else source
    columns = _columns(text)
    if columns is not None:
        try:
            return _scaled(*columns, interpolation, factor, clamp_max_kw)
        except ProfileError:
            pass  # read again line by line, so the first bad line is named
    lines = text.splitlines()
    start = _body_start(lines)
    times, values = [], []
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
        if times and t <= times[-1]:
            raise ProfileError(f"line {lineno}: timestamp {t} not after {times[-1]}")
        times.append(t)
        values.append(v)
    if not times:
        raise ProfileError("no data rows")
    p = TimeSeriesProfile(tuple(times), array("d", values), interpolation)
    return _scaled(p.times, p.values, interpolation, factor, clamp_max_kw)


def sample(profile: TimeSeriesProfile, t: float) -> float:
    """Value at time t; constant extension before/after the knot range."""
    times, values = profile.times, profile.values
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    i = bisect_right(times, t) - 1
    if profile.interpolation == "hold":
        return values[i]
    t0, v0 = times[i], values[i]
    return v0 + (values[i + 1] - v0) * (t - t0) / (times[i + 1] - t0)
