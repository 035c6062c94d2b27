"""Benchmark of the bubbletree library: two seeded workloads, one
closed-loop client in this process, every output checked.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --workload toolbox --quick   # seconds-long smoke run

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics, op times scaled for the machine's speed (see
end_to_end); with --trace 1 it holds the per-layer metrics of a separate
traced run.  Lines before it (prefixed '#') repeat every metric with its
unit, plus the environment, fail_ratio and the unscaled op times.  The
library is imported from src/ next to this directory; without it the
script exits 2.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools before numpy loads, here and in child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # at least ten samples beyond the 90th percentile
POOL_CYCLES = 3  # distinct inputs per stratum; the timed loop reuses them
SETUP_REPS = 11
# Reference-loop calls per second that op times are scaled to (end_to_end);
# about the median rate on the 2-vCPU VM the baseline was taken on.
REF_RATE = 240.0
WORKLOADS = ("pipeline", "toolbox")
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import bubbletree.cli; "
    "print(time.perf_counter() - t)"
)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one cycle of operations, no minimum count")
    return ap.parse_args(argv)


def measure_setup(reps: int) -> float:
    """Median seconds to import bubbletree.cli in a fresh interpreter."""
    times = []
    for _ in range(reps):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that does not touch the library.
    Timed once per cycle, it reads the machine's speed while the workload
    runs, so a drift of the machine can be told from a change of the code."""
    t0 = perf_counter()
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    return perf_counter() - t0


class Loop:
    """One closed-loop client: the next operation starts when the previous
    one and its output check are done.  Only the call itself is timed."""

    def __init__(self, wl, pool: list, cycle_len: int):
        self.wl, self.pool, self.cycle_len = wl, pool, cycle_len
        self.reported = False

    def run(self, seconds: float, min_ops: int, tracer=None) -> dict:
        """Whole cycles until `seconds` have passed and `min_ops` ran.
        Latencies cover every attempted call, failed ones included."""
        lat: list[float] = []
        ref: list[float] = []
        failed = 0
        start = perf_counter()
        at = 0
        while True:
            for inp in self.pool[at : at + self.cycle_len]:
                if tracer is not None:
                    tracer.op = len(lat)
                t0 = perf_counter()
                try:
                    out = self.wl.run(inp)
                except Exception:  # a failed operation is counted, not fatal
                    lat.append(perf_counter() - t0)
                    failed += 1
                    self._report()
                    continue
                lat.append(perf_counter() - t0)
                try:
                    self.wl.check(inp, out)
                except Exception:
                    failed += 1
                    self._report()
                # free the output here, not inside the next operation's timing
                del out
            at = (at + self.cycle_len) % len(self.pool)
            ref.append(reference_loop())
            if perf_counter() - start >= seconds and len(lat) >= min_ops:
                break
        # the median drops samples that a preemption of a few ms inflated
        return {"lat": lat, "failed": failed, "attempted": len(lat),
                "ref_per_s": 1.0 / statistics.median(ref)}

    def _report(self) -> None:
        """Print the traceback of the first failure only."""
        if not self.reported:
            self.reported = True
            traceback.print_exc(file=sys.stderr)


def end_to_end(res: dict, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """Rate and latency percentiles of one loop.  Scaled, they are what the
    loop would read on a machine whose reference loop runs REF_RATE times a
    second: latencies are multiplied by ref_per_s / REF_RATE and the rate is
    divided by it, which takes the machine's drift out of the comparison."""
    lat = res["lat"]
    k = res["ref_per_s"] / REF_RATE if scaled else 1.0
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "ops_per_s": ((len(lat) - res["failed"]) / sum(lat) / k, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 * k, "ms"),
        "op_p90_ms": (deciles[8] * 1e3 * k, "ms"),
    }


def group_means(res: dict, cycle: list, groups) -> dict[str, tuple[float, str]]:
    """Mean latency of each toolbox group's operations, scaled as in
    end_to_end.  The loop runs whole cycles from the pool's start, so
    operation i is of stratum cycle[i % len(cycle)]; a workload without
    groups reports 0."""
    k = res["ref_per_s"] / REF_RATE
    out = {}
    for name in groups:
        mine = [d for i, d in enumerate(res["lat"]) if cycle[i % len(cycle)][0] == name]
        out[f"toolbox.{name}.op_ms"] = (1e3 * k * sum(mine) / len(mine) if mine else 0.0, "ms")
    return out


def emit(metrics: dict[str, tuple[float, str]], correct: bool, attempted: int,
         failed: int, samples: int) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  (n={samples})" if name.startswith("op_p") else ""
        print(f"#   {name} = {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args) -> int:
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(2 if args.quick else SETUP_REPS)
    sys.path.insert(0, str(SRC))
    import numpy

    import bubbletree
    import spans
    import workloads
    from probe import range_probe

    if Path(bubbletree.__file__).resolve().parent.parent != SRC:
        print(f"error: bubbletree imported from {bubbletree.__file__}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = workloads.make_workload(args.workload, tmp)
        cycle = wl.cycle(args.quick)
        geo = random.Random(args.seed)
        t0 = perf_counter()
        pool = [wl.make(s, geo) for _ in range(1 if args.quick else POOL_CYCLES) for s in cycle]
        gen_s = perf_counter() - t0
        # keep the benchmark's own inputs out of the collector's passes, so
        # the pool size does not tax the library's allocations
        gc.collect()
        gc.freeze()
        for inp in pool[: len(cycle)]:  # warm-up: lazy imports, caches
            try:
                wl.run(inp)
            except Exception:  # the timed loop counts and reports it
                pass
        min_ops = 0 if args.quick else MIN_OPS
        loop = Loop(wl, pool, len(cycle))
        print("# env " + json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "gen_s": round(gen_s, 4),
        }))
        # a traced run splits its time between an untraced and a traced
        # loop; a quick run is one cycle
        seconds = 0.0 if args.quick else args.seconds / (2 if args.trace else 1)
        res = loop.run(seconds, min_ops)
        attempted, failed = res["attempted"], res["failed"]
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = loop.run(seconds, min_ops, tracer)
            finally:
                tracer.uninstall()
            attempted += traced["attempted"]
            failed += traced["failed"]
        failed += wl.recheck()
        print(f"# {args.workload}: {attempted} ops, {failed} failed, "
              f"fail_ratio = {failed / attempted:.6g}")
        print(f"# machine: reference loop at {res['ref_per_s']:.6g} 1/s in the untraced loop")
        if args.trace:
            metrics = spans.layer_metrics(tracer.spans, traced["attempted"])
            base = end_to_end(res)["ops_per_s"][0]
            ratio = end_to_end(traced)["ops_per_s"][0] / base if base else 0.0
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
            # from the untraced loop, so tracing costs do not enter them
            metrics.update(group_means(res, cycle, workloads.GROUPS))
            metrics["machine.ref_per_s"] = (res["ref_per_s"], "1/s")
            for name, count in range_probe(geo, tmp / "probe").items():
                metrics[name] = (float(count), "count")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            samples = len(traced["lat"])
        else:
            for name, (value, unit) in end_to_end(res, scaled=False).items():
                print(f"# unscaled {name} = {value:.6g} {unit}")
            metrics = end_to_end(res)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak, "MB")
            metrics["setup_s"] = (setup_s, "s")
            samples = len(res["lat"])
        emit(metrics, failed == 0, attempted, failed, samples)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak memory is its own."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"# {name}: exited {done.returncode}")
            code = done.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(totals))
    return code


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "bubbletree" / "__init__.py").is_file():
        print(f"error: no bubbletree package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
