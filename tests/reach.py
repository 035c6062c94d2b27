"""List the raise statements in src/ that no Tier-1 test executes.

Runs the Tier-1 suite in this process under sys.settrace, records every
line of the package that runs, and prints per module each ``raise`` whose
first line never ran.  Only the standard library is used.  Tests that run
the package in a subprocess are not traced, so their raises count as
unreached.  Tracing makes the suite about three times slower.

    PYTHONPATH=src python tests/reach.py

The exit status is pytest's.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bubbletree"


def raise_lines(source: str) -> list[int]:
    """First line of every raise statement, in order."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise))


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
        missed = [i for i in raise_lines(source) if i not in ran[str(path)]]
        total += len(missed)
        for i in missed:
            print(f"{path.name}:{i}: {lines[i - 1].strip()}")
    print(f"{total} raise statements not executed")
    return status


if __name__ == "__main__":
    sys.exit(main())
