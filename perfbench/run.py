"""loopalg benchmark: run one workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ring-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --self-test               # traced counts repeat exactly

The program is imported from ``src/`` of the checkout.  A run measures set-up
first (fresh interpreter processes that import the package and build the
catalog entries of the workload), then runs passes over the workload's
request list (after an untimed warm-up pass where the workload asks for one)
until ``--seconds`` have elapsed and at least three passes are timed.  With ``--trace 0`` it prints the
end-to-end metrics, every time scaled to a reference host speed (see
``speed.py``); with ``--trace 1`` it traces the first pass and
alternates untraced and traced passes to measure the tracing overhead, and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_ROUNDS = 5
SETUP_SECONDS = 2.0
MIN_PASSES = 3  # timed passes, so that a median over passes has a middle

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, {src!r})
import loopalg.cli
from loopalg.catalog import catalog_entry
from loopalg.families import LieFamily
for family, rank in {configs!r}:
    catalog_entry(LieFamily.from_slug(family), rank)
print(perf_counter() - t0)
"""


def clean_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LOOPALG_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(configs: list[tuple[str, int]], probe: SpeedProbe) -> tuple[float, float]:
    """Median over fresh interpreters of import plus every catalog entry.

    At least SETUP_ROUNDS interpreters, more while they fit in SETUP_SECONDS.
    Returns the median scaled to the reference speed, and the wall-clock one.
    """
    code = SETUP_CODE.format(src=str(SRC), configs=configs)
    scaled, raw = [], []
    start = perf_counter()
    probe.sample()
    while len(raw) < SETUP_ROUNDS or (
        perf_counter() - start < SETUP_SECONDS and len(raw) < 3 * SETUP_ROUNDS
    ):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=clean_env(), cwd=ROOT, timeout=120, check=True,
        )  # fmt: skip
        t1 = perf_counter()
        probe.sample()
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(raw[-1] * probe.scale(t0, t1))
    return statistics.median(scaled), statistics.median(raw)


def quantile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    distribution, p = q/100: it estimates the same percentile as picking
    one sample, but a few samples near it share the weight, so one request
    that ran slow or fast moves it less.  The Beta mass of each rank's
    interval is integrated by the midpoint rule on a fine grid.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = (n + 1) * q / 100, (n + 1) * (100 - q) / 100
    steps = 64  # grid points per rank

    def log_pdf(k: int) -> float:  # up to a constant, at the k-th grid midpoint
        t = (k + 0.5) / (steps * n)
        return (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)

    top = max(map(log_pdf, range(steps * n)))
    weights = [
        sum(math.exp(log_pdf(k) - top) for k in range(i * steps, (i + 1) * steps))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def metric_line(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:>14.6g} {unit}"


def run_workload(args) -> int:
    configs = workloads.configurations(args.workload)
    probe = SpeedProbe()
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(configs, probe)

    from loopalg import catalog
    from loopalg.families import LieFamily

    entry_cache = catalog.catalog_entry
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry_cache.cache_clear()
    for family, rank in configs:
        catalog.catalog_entry(LieFamily.from_slug(family), rank)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    rng = random.Random(args.seed)
    passes, traced, warmup = [], [], []
    try:
        runner = workloads.PassRunner(args.workload, work_dir, probe, tracer)
        for _ in range(0 if tracer else workloads.WARMUP_PASSES[args.workload]):
            warmup.append(runner.run(workloads.requests_for_pass(args.workload, rng)))
        start = perf_counter()
        while True:
            # trace mode: the first pass is traced, then untraced and traced alternate
            trace_this = tracer is not None and len(traced) <= len(passes)
            if tracer is not None and trace_this != tracer.installed:
                tracer.install() if trace_this else tracer.uninstall()
            result = runner.run(workloads.requests_for_pass(args.workload, rng))
            (traced if trace_this else passes).append(result)
            if trace_this and len(traced) == 1:
                layer_metrics = tracer.metrics(entry_cache.cache_info().misses)
            enough = len(passes) >= (1 if tracer else MIN_PASSES) and (tracer is None or traced)
            if enough and perf_counter() - start >= args.seconds:
                break
        measured = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    all_passes = warmup + passes + traced
    attempted = sum(len(p.latencies) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    print(f"workload {args.workload} seed {args.seed} passes {len(all_passes)} requests {attempted}")
    print(f"  warm-up passes {len(warmup)}, then measured {measured:.1f} s")
    print(f"  speed probes took {probe.overhead_s():.2f} s in all")
    print("  pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("  wall-clock  " + " ".join(f"{p.raw_wall_s:.3f}" for p in passes))
    if traced:
        print("  traced pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in traced))
    if tracer is None:
        latencies = [x for p in passes for x in p.latencies]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall_s for p in passes),
            "requests_per_s": statistics.median(len(p.latencies) / p.wall_s for p in passes),
            "latency_p50_ms": 1000 * quantile(latencies, 50),
            "latency_p90_ms": 1000 * quantile(latencies, 90),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        raw_p50 = quantile([x for p in passes for x in p.raw_latencies], 50)
        print(f"  latency samples {len(latencies)}")
        print(f"  wall-clock: setup_s {raw_setup_s:.4f}, latency_p50_ms {1000 * raw_p50:.4g}")
    else:
        from tracing import PER_LAYER

        later = traced[1:] or traced
        layer_metrics["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in later) / statistics.median(p.wall_s for p in passes)
            - 1
        )
        metrics = layer_metrics
        units = {name: unit for name, unit, _ in PER_LAYER}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    for name, unit in units.items():
        print(metric_line(name, metrics[name], unit))
    print(metric_line("failed_frac", failed / attempted, "ratio") + f" ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and caches do not leak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        done = subprocess.run(cmd, capture_output=True, text=True, env=clean_env(), cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def self_test(args) -> int:
    """Two traced runs per workload must give identical work counts."""
    from tracing import PER_LAYER

    counts = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]
    counts += [name for name, _, _ in PER_LAYER if name.endswith("useful_ratio")]
    counts.append("cli.cache_hit_ratio")
    ok = True
    for workload in workloads.WORKLOADS if args.workload == "all" else [args.workload]:
        runs = []
        for _ in range(2):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", "0", "--trace", "1"]  # fmt: skip
            done = subprocess.run(cmd, capture_output=True, text=True, env=clean_env(), cwd=ROOT)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return 1
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        first, second = ({n: r["metrics"][n]["value"] for n in counts} for r in runs)
        m = first
        checks = {
            "traced runs correct": all(r["correct"] for r in runs),
            "counts repeat exactly": first == second,
            "rref rows equal rational rows": m["linalg.rref_rows"] == m["enveloping.rational_rows"],
            "ffe rows equal quotient rows": m["linalg.ffe_rows"] == m["minimal_model.rows"],
            "coker rows within integer rows": m["linalg.coker_rows"] <= m["enveloping.integer_rows"],
        }
        for label, passed in checks.items():
            print(f"{workload}: {label}: {'PASS' if passed else 'FAIL'}")
            ok = ok and passed
        if first != second:
            for name in counts:
                if first[name] != second[name]:
                    print(f"  {name}: {first[name]} vs {second[name]}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "loopalg" / "__init__.py").is_file():
        print(f"error: no loopalg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("LOOPALG_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
