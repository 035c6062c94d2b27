"""The benchmark harness's own test: quick runs of every workload, traced
and untraced, plus input determinism and the refusal to run without
sources.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "1":
        # counts, not gates: a fix of a range defect may bring them to 0
        for name in ("bubbles.range_fail", "curves.range_fail"):
            value = result["metrics"][name]["value"]
            assert value >= 0 and value == int(value)


def test_same_seed_same_inputs():
    def draw(seed):
        geo = random.Random(seed)
        nested = inputs.nested_configuration(random.Random("shape"), geo, 20)
        flat = inputs.flat_configuration(geo, 40)
        tree = inputs.chain_tree(5)
        member = inputs.chain_member(geo, tree, inputs.chain_params(tree))
        return nested.points, flat.points, sorted(member.gamma.items())

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("--workload", "pipeline", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip()
