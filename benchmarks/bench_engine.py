"""Routing-engine scaling — the BENCH_engine.json recorder.

The engine core (:func:`repro.sim.core.route_core`) routes identical
fixed-seed workloads on meshes, hypercubes and hypermeshes, timed against
the frozen seed loop in :mod:`repro.sim._reference`.  Every cell is timed
``SAMPLES`` times on each side, at every size, and each row records the
raw samples, their median and their spread.  A row carries ``equivalent:
true`` only after its schedule and :class:`RoutingStats` have been checked
bit-identical to the seed loop *and* its :class:`CachedPlan` payload — the
exact JSON body a plan-cache blob stores, insertion order included —
matches the seed loop's byte for byte.

The module is importable (``import bench_engine``) and doubles as a
script::

    python benchmarks/bench_engine.py --sizes 256 1024

It deliberately defines no ``test_`` functions:
``bench_library_perf.py::test_perf_engine_scaling`` is the pytest entry
point and delegates here, so the sweep runs once per session.
"""

import json
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

#: Same seeding convention as bench_library_perf / repro.sim.task: each
#: size derives its workload generator from ``WORKLOAD_SEED + n`` so the
#: benchmark routes the exact packets the campaign sweep routes.
WORKLOAD_SEED = 99

ENGINE_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_engine.json"
ENGINE_SIZES = (256, 1024, 4096, 16384)

#: Timed runs per side of every cell, at every size.
SAMPLES = 3

#: Acceptance bar, enforced whenever the sweep includes N = 4096: the core
#: must beat the seed loop by >= 10x on at least one (topology, workload)
#: cell.
SPEEDUP_FLOOR = 10.0

from repro.bounds import certify
from repro.networks import Hypercube, Hypermesh2D, Mesh2D
from repro.routing import Permutation
from repro.sim._reference import reference_route_core
from repro.sim.core import route_core
from repro.sim.plancache import CachedPlan
from repro.sim.routers import router_for


def _engine_topologies(n: int):
    side = math.isqrt(n)
    return (
        ("mesh2d", Mesh2D(side)),
        ("hypercube", Hypercube(n.bit_length() - 1)),
        ("hypermesh2d", Hypermesh2D(side)),
    )


def _engine_workloads(n: int, seed: int):
    """Fixed-seed workloads: a dense permutation (every PE sends) and a
    sparse h-relation (2*sqrt(N) packets — where the seed loop's O(N)
    per-step rescan is pure overhead)."""
    rng = np.random.default_rng(seed)
    perm = Permutation.random(n, rng)
    dense = (list(range(n)), perm.destinations.tolist())
    k = 2 * math.isqrt(n)
    sparse = (
        rng.integers(0, n, size=k).tolist(),
        rng.integers(0, n, size=k).tolist(),
    )
    return (("dense-permutation", dense), ("sparse-hrelation", sparse))


def plan_blob(steps, stats) -> str:
    """The canonical JSON body a plan-cache blob would store for this
    run.  Comparing these strings checks not just dict equality but the
    serialized insertion order — what actually lands on disk."""
    return json.dumps(
        CachedPlan.from_run(steps, stats).to_payload(), sort_keys=True
    )


def timing_summary(samples: list[float]) -> dict:
    """Raw samples (to the microsecond), their median and their spread,
    ``(max - min) / median``, both computed from the recorded samples."""
    samples = [round(s, 6) for s in samples]
    mid = median(samples)
    return {
        "samples": samples,
        "median": mid,
        "spread": round((max(samples) - min(samples)) / mid, 3),
    }


def run_engine_benchmark(
    sizes=ENGINE_SIZES,
    out_path: Path = ENGINE_ARTIFACT,
    require_speedups: bool = True,
) -> dict:
    """Time the core against the seed loop and record the artifact.

    Each (size, topology, workload) cell routes the same packets through
    the seed loop and the core once untimed, then ``SAMPLES`` times,
    interleaved so clock-frequency drift during the sweep cannot bias one
    side of a pair.  Equivalence (schedule, stats, and serialized plan payload) is asserted
    per row before the row is emitted.
    """
    rows = []
    for n in sizes:
        for topo_name, topo in _engine_topologies(n):
            router = router_for(topo)
            for workload, (srcs, dsts) in _engine_workloads(
                n, seed=WORKLOAD_SEED + n
            ):
                max_steps = 16 * (10 * topo.diameter + 10 * n)
                # One untimed run per side first, so lazily built router
                # and topology tables are not charged to the first sample.
                reference_route_core(topo, srcs, dsts, router, max_steps)
                route_core(topo, srcs, dsts, router, max_steps)
                seed_samples, core_samples = [], []
                for _ in range(SAMPLES):
                    t0 = time.perf_counter()
                    ref_steps, ref_stats = reference_route_core(
                        topo, srcs, dsts, router, max_steps
                    )
                    seed_samples.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    steps, stats = route_core(
                        topo, srcs, dsts, router, max_steps
                    )
                    core_samples.append(time.perf_counter() - t0)
                label = f"{topo_name} n={n} {workload}"
                assert steps == ref_steps and stats == ref_stats, (
                    f"core diverged from seed loop on {label}"
                )
                assert plan_blob(steps, stats) == plan_blob(
                    ref_steps, ref_stats
                ), f"core plan payload differs on {label}"
                # A BoundViolation here is a failed benchmark run, never a
                # recorded row.
                cert = certify(
                    topo,
                    list(zip(srcs, dsts)),
                    stats.steps,
                    label=f"{topo_name}/{workload}/n={n}",
                )
                core = timing_summary(core_samples)
                seed = timing_summary(seed_samples)
                rows.append(
                    {
                        "topology": topo_name,
                        "n": n,
                        "workload": workload,
                        "packets": len(srcs),
                        "steps": stats.steps,
                        "total_hops": stats.total_hops,
                        "engine_seconds": core["median"],
                        "engine_samples": core["samples"],
                        "engine_spread": core["spread"],
                        "seed_engine_seconds": seed["median"],
                        "seed_samples": seed["samples"],
                        "seed_spread": seed["spread"],
                        "speedup": round(seed["median"] / core["median"], 2),
                        "equivalent": True,
                        "bound": cert.bound,
                        "bound_ratio": round(cert.ratio, 2)
                        if cert.ratio is not None else None,
                        "bound_kind": cert.binding,
                        "certified": True,
                    }
                )

    artifact = {
        "benchmark": "bench_engine.py::run_engine_benchmark",
        "engine": "repro.sim.core.route_core (structure-of-arrays core)",
        "baseline": "repro.sim._reference.reference_route_core (seed loop)",
        "equivalence": (
            "per row: schedule, RoutingStats and serialized CachedPlan "
            "payload bit-identical to the seed loop (equivalent: true)"
        ),
        "timing": (
            f"one untimed warm-up run, then {SAMPLES} interleaved samples "
            "per side per row (seed loop first); *_seconds is the median, *_spread is "
            "(max - min) / median, speedup is the ratio of medians"
        ),
        "sizes": list(sizes),
        "rows": rows,
    }
    if 4096 in sizes:
        cell = max(
            (r for r in rows if r["n"] == 4096), key=lambda r: r["speedup"]
        )
        artifact["best_speedup_at_4096"] = {
            "topology": cell["topology"],
            "workload": cell["workload"],
            "speedup": cell["speedup"],
        }
        if require_speedups:
            assert cell["speedup"] >= SPEEDUP_FLOOR, (
                f"core below its {SPEEDUP_FLOOR}x floor at N=4096: "
                f"best {artifact['best_speedup_at_4096']}"
            )
    if out_path is not None:
        out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="record BENCH_engine.json (engine core vs seed loop)"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(ENGINE_SIZES),
        help="node counts to sweep (square powers of two)",
    )
    parser.add_argument("--output", type=Path, default=ENGINE_ARTIFACT)
    parser.add_argument(
        "--no-floors",
        action="store_true",
        help="record timings without enforcing the 4096 speedup floor "
        "(smoke runs on loaded CI hosts)",
    )
    args = parser.parse_args(argv)

    artifact = run_engine_benchmark(
        sizes=tuple(args.sizes),
        out_path=args.output,
        require_speedups=not args.no_floors,
    )
    print(f"wrote {args.output} ({len(artifact['rows'])} rows)")
    cell = artifact.get("best_speedup_at_4096")
    if cell:
        print(
            f"  best {cell['speedup']}x at N=4096 "
            f"({cell['topology']}, {cell['workload']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
