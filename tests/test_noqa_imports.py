"""Imports kept only for the benchmark's tracer (``bench/tracing.py``).

A ``# noqa: F401`` import is one the program does not use. Each must be a
name the tracer replaces, so that no dead import hides behind it and the
tracer's move to spans can delete them all together.
"""

import ast
from pathlib import Path

from test_tracing import load_tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "alol"

# Besides its TARGETS, the tracer swaps these modules' SplitMix64 class.
PATCHED = {("learners", "SplitMix64"), ("pool", "SplitMix64")}


def unused_imports(path):
    """(module, name) of each import on a ``# noqa: F401`` line of ``path``,
    and the numbers of the noqa lines that hold no import."""
    lines = path.read_text(encoding="utf-8").splitlines()
    noqa = {n for n, line in enumerate(lines, start=1) if "# noqa: F401" in line}
    names = []
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.lineno in noqa:
                    names.append((path.stem, alias.asname or alias.name))
                    noqa.discard(alias.lineno)
    return names, sorted(noqa)


def test_every_unused_import_is_one_the_tracer_replaces():
    tracing = load_tracing()
    targets = {(module.__name__.split(".")[-1], attr) for module, attr, _, _ in tracing.TARGETS}
    found = []
    for path in sorted(SRC.glob("*.py")):
        names, stray = unused_imports(path)
        assert stray == [], f"{path.name}: noqa F401 on lines {stray} that import nothing"
        found += names
    assert ("learners", "SplitMix64") in found
    assert [name for name in found if name not in targets | PATCHED] == []
