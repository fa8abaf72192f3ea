"""Benchmark workloads: the scenario file each one runs, made from the seed.

``normal`` and ``attack`` are the golden scenarios shipped with the
package, unchanged, so their artifact digests can be compared across
commits; the seed does not alter them.  ``dense-profile`` is the normal
plant and network replaying 1 s-resolution load and PV profiles with
linear interpolation.  Its profiles are the bundled CSVs, interpolated
to one knot per second, times a bounded multiplicative noise drawn from
the seed.  The profiles are generated here, not with gridtwin's own
profile code, so the inputs do not depend on the program under test.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "gridtwin" / "data"

WORKLOADS = ("normal", "attack", "dense-profile")

# dense-profile sizing: one simulated hour (3,600 steps) over two hours of
# 1 s knots per profile.  Sampling then costs O(knots) per step and holds
# most of the run, while one run stays at a few seconds.
DENSE_END = "10:15:00"
DENSE_KNOTS = 7200
DENSE_NOISE = 0.05  # each knot is scaled by a factor in [0.95, 1.05]


def _read_csv(path: Path) -> tuple[list[float], list[float]]:
    times, values = [], []
    for line in path.read_text().splitlines():
        parts = line.split(",")
        try:
            t, v = float(parts[0]), float(parts[1])
        except (IndexError, ValueError):
            continue  # header
        times.append(t)
        values.append(v)
    return times, values


def _interpolate(times: list[float], values: list[float], t: float) -> float:
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    i = bisect_right(times, t) - 1
    t0, t1 = times[i], times[i + 1]
    return values[i] + (values[i + 1] - values[i]) * (t - t0) / (t1 - t0)


def dense_profile_csv(path: Path, rng: random.Random) -> str:
    times, values = _read_csv(path)
    lines = ["t_s,value_kw"]
    for t in range(DENSE_KNOTS):
        v = _interpolate(times, values, float(t))
        v *= 1.0 + rng.uniform(-DENSE_NOISE, DENSE_NOISE)
        lines.append(f"{t},{v:.4f}")
    return "\n".join(lines) + "\n"


def prepare(workload: str, seed: int, workdir: Path) -> Path:
    """Write the workload's inputs under workdir; return its scenario file."""
    if workload in ("normal", "attack"):
        return DATA / "configs" / f"{workload}.yaml"
    if workload != "dense-profile":
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    raw = yaml.safe_load((DATA / "configs" / "normal.yaml").read_text())
    raw["name"] = "dense-profile"
    raw["clock"]["end"] = DENSE_END
    for which in ("load", "pv"):
        csv = workdir / f"{which}.csv"
        csv.write_text(dense_profile_csv(DATA / "profiles" / f"{which}.csv", rng))
        raw["profiles"][which]["file"] = csv.name
        raw["profiles"][which]["interpolation"] = "linear"
    config = workdir / "dense-profile.yaml"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    return config
