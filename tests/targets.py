"""List the Tier-1 tests that fail when numpy mimics an older x86-64 CPU.

numpy picks its SIMD loops at run time from the CPU, and some of them round
differently, so a test that pins bits can pass on one CPU and fail on
another.  numpy's NPY_DISABLE_CPU_FEATURES switches dispatched loops off
for one process.  This script runs the Tier-1 suite in three child
processes, one after the other:

    native    NPY_DISABLE_CPU_FEATURES unset
    no-avx512 AVX-512 off: "AVX512_ICL AVX512_SPR X86_V4"
    no-avx2   AVX2 off as well: "AVX512_ICL AVX512_SPR X86_V4 X86_V3"

and prints for each setting pytest's summary line and every failing test.
X86_V2 is numpy 2.4's x86-64 baseline, the oldest target it can mimic.  A
setting whose features this CPU or numpy build does not dispatch is
reported as not run, with numpy's message.  Only the standard library is
used; each child takes as long as one Tier-1 run.

    PYTHONPATH=src python tests/targets.py

The exit status is 1 if any setting that ran has a failing test, else 0.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SETTINGS = (
    ("native", None),
    ("no-avx512", "AVX512_ICL AVX512_SPR X86_V4"),
    ("no-avx2", "AVX512_ICL AVX512_SPR X86_V4 X86_V3"),
)

TIER1 = ("-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def child_env(disabled: str | None) -> dict:
    """This process's environment with src/ first on PYTHONPATH and
    NPY_DISABLE_CPU_FEATURES set to disabled, or unset for None."""
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def refusal(env: dict) -> str | None:
    """numpy's warning or error when it cannot disable the features, else
    None: importing numpy with warnings as errors must succeed."""
    probe = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import numpy"],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    return None if probe.returncode == 0 else probe.stderr.strip().splitlines()[-1]


def failing(output: str) -> list[str]:
    """The test ids of pytest's FAILED and ERROR summary lines, in order."""
    out = []
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            out.append(line.split(" ", 1)[1].split(" - ", 1)[0])
    return out


def main() -> int:
    any_failed = False
    for name, disabled in SETTINGS:
        env = child_env(disabled)
        print(f"== {name}: NPY_DISABLE_CPU_FEATURES={disabled or '(unset)'}", flush=True)
        why = refusal(env)
        if why is not None:
            print(f"   not run: {why}")
            continue
        run = subprocess.run(
            [sys.executable, *TIER1], env=env, cwd=ROOT, capture_output=True, text=True
        )
        lines = [line for line in run.stdout.splitlines() if line.strip()]
        print(f"   {lines[-1] if lines else '(no output)'}")
        tests = failing(run.stdout)
        any_failed |= bool(tests) or run.returncode != 0
        for test in tests:
            print(f"   FAILED {test}")
        sys.stdout.flush()
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
