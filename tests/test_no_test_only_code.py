"""No library code that only its own tests call.

Every public top-level ``def``/``class`` in ``src/repro`` must be referred
to (an AST ``Name``, ``Attribute`` or import) from the library itself,
``bench/``, ``benchmarks/`` or ``examples/``. References from ``tests/``
do not count, nor do docstrings, comments or the re-exports of an
``__init__.py``. ``api.py`` is the public facade and is not scanned, and
``__init__.py`` files define nothing to scan.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Names kept although only tests refer to them, each with its reason.
ALLOWLIST = {
    "telemetry.clock.ManualClock":
        "a test fake: the deterministic clock tests inject",
}


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced() -> list[str]:
    referenced = set()
    for path in SRC.rglob("*.py"):
        referenced |= _references(path)
    for directory in ("bench", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            referenced |= _references(path)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("__init__.py", "api.py"):
            continue
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in referenced
            ):
                found.append(f"{module}.{node.name}")
    return found


def test_every_public_name_has_a_caller_outside_tests():
    unreferenced = _unreferenced()
    offenders = [name for name in unreferenced if name not in ALLOWLIST]
    stale = sorted(set(ALLOWLIST) - set(unreferenced))
    lines = [
        f"  {name}: " + (f"allowlisted ({ALLOWLIST[name]})"
                         if name in ALLOWLIST else "only tests refer to it")
        for name in unreferenced
    ] + [f"  {name}: allowlisted, but now has a caller (drop it from "
         "ALLOWLIST)" for name in stale]
    assert not offenders and not stale, (
        f"{len(unreferenced)} public top-level names have no reference "
        "outside tests; delete the offenders (with their tests) or give "
        "them a caller:\n" + "\n".join(lines)
    )
