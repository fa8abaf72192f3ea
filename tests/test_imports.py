"""No module of the package imports a name it never uses, no
module-level function or class of it goes unused, and no test module
imports another or ``conftest.py``.

A leftover import keeps a deleted feature's dependency looking alive.
An import kept on purpose carries ``# noqa: F401`` on its line.  A def
counts as used when the package, perfbench or the tools load its name: a
def that only its tests load is dead code with tests.  A test module
imported by another runs twice in one session, once under each name, and
so does ``conftest.py``, which pytest loads itself: helpers the tests
share live in ``helpers.py`` and ``wire.py``, and only fixtures in
``conftest.py``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from tests import helpers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridtwin"
TESTS = ROOT / "tests"
# the sources whose loads count as uses of a def in the package
USERS = ("src", "perfbench", "tools")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation names its types inside a string
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value))
                         if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Any, Callable\n"
              "from json import dumps  # noqa: F401\n"
              "def f(x: 'Any') -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["line 3: Callable"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def loaded_names(source: str) -> set[str]:
    """The names a module reads: Name and Attribute loads and the names
    it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def unused_defs(source: str, loaded: set[str]) -> list[str]:
    """The module-level functions and classes of source not in loaded."""
    return [f"line {node.lineno}: {node.name}"
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in loaded]


def test_guard_finds_an_unused_def():
    source = ("import gridtwin.netem as n\n"
              "from gridtwin.capture import Capture\n"
              "class Used: pass\n"
              "def helper(): return Used\n"
              "def ip_str(raw): return n.mac_bytes\n")
    loaded = loaded_names(source) | loaded_names("helper()")
    assert {"netem", "Capture", "mac_bytes"} <= loaded
    assert unused_defs(source, loaded) == ["line 5: ip_str"]


def test_every_top_level_def_is_used():
    loaded = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            loaded |= loaded_names(path.read_text())
    unused = {path.name: unused_defs(path.read_text(), loaded)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: defs for name, defs in unused.items() if defs} == {}


def imported_test_modules(source: str) -> list[str]:
    """The test modules (``test_*``) and ``conftest`` modules that source
    imports, by any name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}".lstrip(".")
                                for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.rpartition(".")[2].startswith("test_")
                  or name.rpartition(".")[2] == "conftest"]
    return found


def test_guard_finds_a_test_module_import():
    source = ("import tests.wire\n"
              "from tests.helpers import write_tiny_config\n"
              "from tests.test_capture import read_pcap\n"
              "from tests import test_netem, wire\n"
              "import test_attack as attack\n"
              "from tests.conftest import write_tiny_config\n"
              "def f():\n"
              "    from .test_cosim import Scheduler\n")
    assert imported_test_modules(source) == [
        "line 3: tests.test_capture", "line 4: tests.test_netem",
        "line 5: test_attack", "line 6: tests.conftest",
        "line 8: test_cosim"]


def test_no_test_module_imports_another():
    found = {path.name: imported_test_modules(path.read_text())
             for path in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def loaded_from(path: Path) -> list:
    """The modules in sys.modules loaded from the file at path."""
    return [module for module in list(sys.modules.values())
            if getattr(module, "__file__", None)
            and Path(module.__file__).resolve() == path]


def test_the_shared_helpers_are_loaded_once():
    assert loaded_from(TESTS / "helpers.py") == [helpers]
    # pytest loads conftest.py, as conftest; no test module loads it again
    [conftest] = loaded_from(TESTS / "conftest.py")
    assert conftest.run_golden is helpers.run_golden


def test_a_run_loads_no_socket_module():
    # socket pulls in select and selectors too; a simulated network needs
    # none of them, and every run would carry their memory
    script = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
              "import gridtwin.scenario\n"
              "print(sorted({'socket', 'select', 'selectors'}\n"
              "             & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"
