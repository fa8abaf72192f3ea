#!/usr/bin/env python3
"""Check the ten golden artifact digests without pytest.

    python3 tools/check_golden.py

Runs both golden scenarios from this checkout's ``src/``, exports each
into a temporary directory (``TMPDIR`` sets where) and compares the
SHA-256 of every artifact with the pins in
``tests/test_golden_digests.py``, read from its ``DIGESTS`` assignment,
so the pins stay in one place.  Prints the YAML loader that parsed the
configs (libyaml, or the pure-Python fallback), then one line per
artifact, and exits 1 on any mismatch.  Needs the standard library and
PyYAML, so it runs on any interpreter the package supports, pytest or
not.
"""

from __future__ import annotations

import ast
import hashlib
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "test_golden_digests.py"


def pinned_digests() -> dict[str, dict[str, str]]:
    """The DIGESTS dict of the golden digest test, read without running it."""
    for node in ast.parse(PINS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "DIGESTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{PINS}: no DIGESTS assignment")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from gridtwin import data_path
    from gridtwin.scenario import LIBYAML, ScenarioConfig, build

    pins = pinned_digests()
    print(f"Python {platform.python_version()} "
          f"({platform.python_implementation()})")
    # the golden configs are small and hold no tab, so libyaml reads
    # them where PyYAML ships it
    print("YAML loader: " + ("libyaml" if LIBYAML else "pure-Python"))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, want in sorted(pins.items()):
            sim = build(ScenarioConfig.load(
                data_path("configs", f"{name}.yaml")))
            sim.run()
            outdir = Path(tmp) / name
            sim.export(outdir)
            for fname, digest in want.items():
                got = hashlib.sha256((outdir / fname).read_bytes()).hexdigest()
                if got == digest:
                    print(f"ok        {name}/{fname}")
                else:
                    bad += 1
                    print(f"MISMATCH  {name}/{fname}: {got}, pinned {digest}")
    total = sum(len(want) for want in pins.values())
    print(f"{total - bad} of {total} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
