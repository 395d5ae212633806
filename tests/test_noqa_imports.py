"""Imports kept only for the benchmark's tracer (``bench/tracing.py``),
and no other unused import.

A ``# noqa: F401`` import is one the program does not use. Each must be a
name the tracer replaces, so that no dead import hides behind it and the
tracer's move to spans can delete them all together. Every other import
must be read somewhere in its module, as pyflakes would check.
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


def unread_imports(path):
    """Names that ``path`` imports on lines without ``# noqa: F401`` and
    never reads. ``__future__`` imports are not names, and a name listed
    in ``__all__`` is read as a re-export."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = ast.parse("\n".join(lines))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1] and name not in read:
                    unread.append(f"{path.name}:{alias.lineno} {name}")
    return unread


def test_every_other_import_is_read():
    assert [name for path in sorted(SRC.glob("*.py")) for name in unread_imports(path)] == []
