"""A fixed pure-Python reference unit that measures the host's speed.

The benchmark shares its host with other tenants, which slow it down by
up to 2x for stretches of 0.1 s to minutes.  An iteration
times this unit before its first piece of gridtwin work and after each
piece, and run.py scales each piece by how fast the unit ran just before
and just after it: a time ``t`` between unit times ``u0`` and ``u1``
counts as ``t * UNIT_S / ((u0 + u1) / 2)``.  The unit calls no gridtwin
code; only the cache state gridtwin leaves behind reaches it (see
``measure``).  Its mix is gridtwin's: attribute access and method calls on small objects, dict
updates, float arithmetic and struct packing.
"""

from __future__ import annotations

import struct
import time

# about the host time of one unit on the 2-vCPU host the benchmark was
# written on (CPython 3.11.7).  Scaled times are what the work would take
# on a host that runs the unit in exactly this time.
UNIT_S = 100e-6


class _Node:
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value

    def step(self, k: int) -> float:
        self.value = self.value * 0.999 + k * 1e-3
        return self.value


_NODES = [_Node(f"n{i}", float(i)) for i in range(16)]
_PACK = struct.Struct(">Hf").pack


def _unit() -> int:
    table: dict[str, float] = {}
    out = []
    for r in range(12):
        for node in _NODES:
            v = node.step(r)
            table[node.name] = table.get(node.name, 0.0) + v
            out.append(_PACK(r, v))
    return len(b"".join(out))


def measure(units: int = 1) -> float:
    """Host time per unit of ``units`` back-to-back reference units.

    The first unit finds its code and data where gridtwin's work left the
    caches.  That is deliberate: co-tenants slow gridtwin mostly through
    the shared caches and memory, and a unit that starts warm does not
    see that."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - t0) / units


def scaled(times: list[float], units: list[float]) -> list[float]:
    """``times`` at the reference speed; ``units`` has one more entry,
    the unit time before the first piece and after each piece."""
    assert len(units) == len(times) + 1
    return [t * 2 * UNIT_S / (u0 + u1)
            for t, u0, u1 in zip(times, units, units[1:])]
