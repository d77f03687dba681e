"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload route-batch --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --tiny     # every workload, small

``BENCHMARK.json`` lists ``route-batch`` and ``paper-full``.  ``serve-zipf``
runs the same way but is not listed: its latency moves with the host's
load far more than its CPU speed (see ``README.md``).

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` the
workload runs twice, untraced and then with spans around every call into
the program, followed by the per-layer probes; the last line carries the
per-layer metrics, and the lines before it compare the two runs'
end-to-end numbers (the tracing overhead).  Lines before the last one
are the run record: phase tallies, tails, digests and every correctness
check.  The exit code is 0 when every check passed, 1 when one failed
and 2 when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import common
from common import (NULL_TRACER, ROOT, SCRATCH, SetupError, Tracer, median,
                    snapshot, snapshot_diff)
from hostspeed import SpeedSampler

WORKLOADS = ("route-batch", "serve-zipf", "paper-full")
E2E_UNITS = {
    "job_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Per-layer counts a workload reports from its own traffic; zero where
#: the workload bypasses the layer.
COUNT_METRICS = ("sim.route_intact.calls",)
#: In-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def layer_units() -> dict[str, str]:
    from probes import PAPER_ENTRIES

    units = {
        "sim.build_s": "s",
        "sim.route_intact.busy_s": "s",
        "sim.route_faulted.busy_s": "s",
        "faults.setup_s": "s",
        "bounds.certify_s": "s",
        "plancache.key_ms": "ms",
        "plancache.get_memory_ms": "ms",
        "plancache.get_disk_ms": "ms",
        "plancache.put_ms": "ms",
        "plancache.blob_bytes": "bytes",
        "service.healthz_ms": "ms",
        "service.validate_ms": "ms",
        "service.pool_job_ms": "ms",
        "service.execute_route_ms": "ms",
        "campaign.dispatch_ms": "ms",
        **{f"campaign.task_s.{e}": "s" for e in PAPER_ENTRIES},
        "paper.render_s": "s",
        "trace.overhead_pct": "%",
    }
    units.update({name: "count" for name in COUNT_METRICS})
    return units


def module_for(workload: str):
    import paper_full
    import route_batch
    import serve_zipf

    return {"route-batch": route_batch, "serve-zipf": serve_zipf,
            "paper-full": paper_full}[workload]


def timed_setup(workload: str, seed: int, tiny: bool) -> tuple[float, list]:
    """Fresh interpreters importing the program and building the
    workload's inputs (``--setup-only``): the median of their walls at
    reference host speed, and the raw walls."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")

    spans = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_SAMPLES):
            # No timeout: with one, Popen.wait polls in steps of up to
            # 50 ms, which would quantize the measurement.
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=common.child_env(),
                           check=True, stdout=subprocess.DEVNULL)
            spans.append((t0, time.perf_counter()))
    raw = [end - start for start, end in spans]
    scaled = [(end - start) * sampler.factor(start, end)
              for start, end in spans]
    return median(scaled), raw


def measure(workload: str, seed: int, seconds: float, tiny: bool,
            tracer=NULL_TRACER):
    module = module_for(workload)
    if workload == "serve-zipf":  # set-up is the server spawns it times
        return module.run(seed, seconds, tiny=tiny, tracer=tracer)
    setup_s, raw = timed_setup(workload, seed, tiny)
    result = module.run(seed, seconds, tiny=tiny, setup_s=setup_s,
                        tracer=tracer)
    result.record["setup_raw_s"] = raw
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> dict:
    """Measure one workload; print its record; return the result object."""
    before = snapshot()
    result = measure(workload, seed, seconds, tiny)
    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit in E2E_UNITS.items()}
    record = {"workload": workload, "seed": seed, "tiny": tiny,
              "record": result.record}
    correct, attempted, failed = result.correct, result.attempted, result.failed
    checks = list(result.checks)
    if trace:
        import probes

        tracer = Tracer()
        traced = measure(workload, seed, seconds, tiny, tracer)
        correct = correct and traced.correct
        attempted += traced.attempted
        failed += traced.failed
        checks += traced.checks
        overhead = {
            name: {"untraced": result.metrics[name],
                   "traced": traced.metrics[name],
                   "diff_pct": (traced.metrics[name] / result.metrics[name]
                                - 1) * 100}
            for name in E2E_UNITS
        }
        spans = SCRATCH / "trace" / f"{workload}-seed{seed}.jsonl"
        tracer.write(spans)
        layers = probes.probe_all(seed, tiny)
        layers.update({name: traced.counts.get(name, 0)
                       for name in COUNT_METRICS})
        layers["trace.overhead_pct"] = overhead["job_p50_ms"]["diff_pct"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units().items()}
        record.update(tracing_overhead=overhead, spans_file=str(
            spans.relative_to(ROOT)), span_rollup=tracer.rollup(),
            traced_record=traced.record)
    left = snapshot_diff(before, snapshot())
    checks.append(("run left no files in the checkout", not left,
                   ", ".join(left[:5])))
    correct = correct and not left
    record["checks"] = [{"check": n, "passed": p, "detail": d}
                        for n, p, d in checks]
    print(json.dumps(record, default=str))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes: every workload in seconds")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        common.setup_paths()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.setup_only:
        module_for(args.workload).prepare(args.seed, args.tiny)
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {name: run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), args.tiny)
                for name in names}
    if len(outcomes) == 1:
        final = outcomes[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, o in outcomes.items()
                        for metric, value in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
