"""List the raise statements in src/ that no Tier-1 test executes.

Runs the Tier-1 suite in this process under sys.settrace, records every
line of the package that runs, and prints per module each ``raise`` whose
first line never ran, with its enclosing function, as in
``curves.py:820 decomposition: raise ...``.  Only the standard library is
used.  Tests that run the package in a subprocess are not traced, so their
raises count as unreached.  Tracing makes the suite about three times
slower.

    PYTHONPATH=src python tests/reach.py

The exit status is pytest's when the suite fails, else 1 if any raise is
listed and 0 if none is.
"""

import ast
import sys
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


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run per file of the package."""
    prefix = str(SRC)
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main() -> int:
    status, ran = traced_run(["-q", "-p", "no:cacheprovider"])
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        missed = [(i, name) for i, name in raise_lines(source) if i not in ran[str(path)]]
        total += len(missed)
        for i, name in missed:
            print(f"{path.name}:{i} {name}: {lines[i - 1].strip()}")
    print(f"{total} raise statements not executed")
    return status or int(total > 0)


if __name__ == "__main__":
    sys.exit(main())
