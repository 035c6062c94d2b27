"""List the raise statements in src/ that no Tier-1 test executes.

Runs the Tier-1 suite in this process under sys.settrace, records every
line of the package that runs, and prints per module each ``raise`` whose
first line never ran, with its enclosing function, as in
``curves.py:820 decomposition: raise ...``.  Only the standard library is
used.  Tests that run the package in a subprocess are not traced, so their
raises count as unreached.  Tracing makes the suite about three times
slower.

A line counts as executed only when it runs while no attribute of a
bubbletree module or class is monkeypatched: a check that only a faked
collaborator can reach guards nothing the real code produces.  Patches of
the environment, the working directory or other modules still count.  The
raises reached only under such a patch are listed under their own heading
and count as not executed.

    PYTHONPATH=src python tests/reach.py

The exit status is pytest's when the suite fails, else 1 if any raise is
listed and 0 if none is.
"""

import ast
import sys
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bubbletree"


def raise_lines(source: str) -> list[tuple[int, str]]:
    """(first line, qualified name of the enclosing function) of every
    raise statement, in order; "<module>" outside any function."""
    found = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, names + [child.name])
                continue
            if isinstance(child, ast.Raise):
                found.append((child.lineno, ".".join(names) or "<module>"))
            visit(child, names)

    visit(ast.parse(source), [])
    return sorted(found)


def in_package(target) -> bool:
    """Whether a monkeypatch target is a bubbletree module or class, or a
    dotted name inside the package."""
    if isinstance(target, str):
        name = target
    elif isinstance(target, types.ModuleType):
        name = target.__name__
    else:
        name = getattr(target, "__module__", None) or ""
    return name.split(".")[0] == "bubbletree"


def watch_patches() -> set:
    """Make pytest's MonkeyPatch keep, in the returned set, every instance
    that has set an attribute of the package and not yet been undone."""
    live = set()
    setattr_, undo = pytest.MonkeyPatch.setattr, pytest.MonkeyPatch.undo

    def watched_setattr(self, target, *args, **kwargs):
        setattr_(self, target, *args, **kwargs)
        if in_package(target):
            live.add(self)

    def watched_undo(self):
        undo(self)
        live.discard(self)

    pytest.MonkeyPatch.setattr = watched_setattr
    pytest.MonkeyPatch.undo = watched_undo
    return live


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]], dict[str, set[int]]]:
    """pytest's exit status and the lines run per file of the package,
    apart and while an attribute of the package was monkeypatched."""
    prefix = str(SRC)
    ran: dict[str, set[int]] = defaultdict(set)
    faked: dict[str, set[int]] = defaultdict(set)
    live = watch_patches()

    def local(frame, event, _arg):
        if event == "line":
            (faked if live else ran)[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran, faked


def main() -> int:
    status, ran, faked = traced_run(["-q", "-p", "no:cacheprovider"])
    unreached, patched_only = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for i, name in raise_lines(source):
            if i not in ran[str(path)]:
                where = patched_only if i in faked[str(path)] else unreached
                where.append(f"{path.name}:{i} {name}: {lines[i - 1].strip()}")
    for line in unreached:
        print(line)
    if patched_only:
        print("reached only while an attribute of the package is monkeypatched:")
        for line in patched_only:
            print(line)
    total = len(unreached) + len(patched_only)
    print(f"{total} raise statements not executed")
    return status or int(total > 0)


if __name__ == "__main__":
    sys.exit(main())
