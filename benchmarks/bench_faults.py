"""Degraded-mode overhead: routing cost vs injected fault severity.

Sweeps the ``repro.faults`` fault grid over the engine and records how the
measured schedule degrades as the machine does:

* **link-failure fractions** on the point-to-point topologies — steps and
  total hops vs the fraction of links sampled down (seeded, so every run
  fails the same links).  Cells whose sampled faults partition the demand
  set are recorded as ``unroutable`` rows, mapping the feasibility cliff;
* **degraded hypermesh nets** — serialized nets (one packet per step)
  against the fault-free one-partial-permutation baseline;
* **intermittent drops** — ``drop_prob`` with an unbounded retry budget:
  every packet still arrives, the retries are the overhead.

Every cell is routed ``SAMPLES`` times through the engine and through the
scalar oracle (:func:`repro.sim._reference.route_oracle`), interleaved
(oracle first each sample — the same protocol as ``bench_engine.py``), and
each emitted row records both sides' raw samples, medians and spreads, a
``speedup_vs_oracle`` column, and ``equivalent: true`` only after the
engine's schedule (step dicts in insertion order) and
:class:`RoutingStats` were checked bit-identical to the oracle's.  The
dedicated large-N cells (``SPEEDUP_SIZES``) are where the engine core
must clear its ``SPEEDUP_FLOOR`` over the oracle.

Every faulted cell also re-checks the subsystem's contracts at benchmark
scale: routing the same faulted cell twice is bit-identical (determinism),
``delivered + dropped`` equals the packet count (conservation), per-cell
``total_hops`` never beats the fault-free baseline (path monotonicity —
*step* counts may legitimately beat it; see the Braess note in
docs/FAULTS.md), and a disabled model reproduces the baseline exactly.

Emits ``BENCH_faults.json`` at the repo root.  Importable
(``import bench_faults``) and runnable standalone::

    python benchmarks/bench_faults.py              # full sizes
    python benchmarks/bench_faults.py --sizes 64   # CI smoke
"""

import json
import math
import time
from pathlib import Path

#: Same seeding conventions as the other benchmarks: one workload seed for
#: the demands, one fault seed for the sampled link failures.
WORKLOAD_SEED = 99
FAULT_SEED = 99

from repro.bounds import certify
from repro.faults import FaultModel, UnroutableError
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.sim import route_demands
from repro.sim._reference import route_oracle
from repro.sim.routers import router_for

from bench_engine import SAMPLES, timing_summary

FAULTS_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_faults.json"
FAULTS_SIZES = (64, 256)
LINK_FAIL_FRACTIONS = (0.0, 0.05, 0.1, 0.2)
DEGRADED_NET_COUNTS = (0, 1, 2)
DROP_PROBS = (0.0, 0.2, 0.4)

#: Dedicated large-N cells (mesh2d only — the severity grid stays small)
#: where the engine core must beat the scalar oracle.
SPEEDUP_SIZES = (4096,)
SPEEDUP_FLOOR = 3.0


def _point_to_point(n: int):
    side = math.isqrt(n)
    return (
        ("mesh2d", Mesh2D(side)),
        ("torus2d", Torus2D(side)),
        ("hypercube", Hypercube(n.bit_length() - 1)),
    )


def _reversal(n: int) -> list[tuple[int, int]]:
    return [(i, n - 1 - i) for i in range(n)]


def _enabled(model):
    return model if model.enabled else None


def _timed_route(topology, demands, model):
    """Route through the engine: (seconds, (steps, stats))."""
    t0 = time.perf_counter()
    routed = route_demands(
        topology, demands, fault_model=_enabled(model), cache=False,
    )
    return time.perf_counter() - t0, (list(routed.steps), routed.stats)


def _timed_oracle(topology, demands, model):
    """Route through the scalar oracle: (seconds, (steps, stats))."""
    t0 = time.perf_counter()
    out = route_oracle(
        topology, [s for s, _ in demands], [d for _, d in demands],
        router_for(topology), 1_000_000, _enabled(model),
    )
    return time.perf_counter() - t0, out


def _comparable(out):
    steps, stats = out
    return [list(s.items()) for s in steps], stats


def _faulted_row(topo_name, topology, n, axis, amount, model, baseline):
    """The row of one fault cell: routable, or unroutable.

    After one untimed engine run (which also surfaces an unroutable cell),
    ``SAMPLES`` interleaved pairs — the oracle first, then the engine —
    so clock drift during the sweep cannot bias one side.  Every engine
    run must equal the oracle's output (determinism and bit-identity at
    once) before the row is emitted with ``equivalent: true``.
    """
    label = f"{topo_name}/n={n}/{axis}={amount}"
    demands = _reversal(n)
    try:
        _timed_route(topology, demands, model)
    except UnroutableError as exc:
        # The oracle must refuse the partitioned cell identically.
        try:
            _timed_oracle(topology, demands, model)
        except UnroutableError as other:
            assert str(other) == str(exc), (
                f"unroutable message differs from the oracle's: "
                f"{exc} != {other}"
            )
        else:  # pragma: no cover - contract violation
            raise AssertionError(f"the oracle routed {label}")
        return {
            "topology": topo_name,
            "n": n,
            "axis": axis,
            "amount": amount,
            "unroutable": True,
            "error": str(exc),
        }
    oracle_samples, engine_samples = [], []
    for _ in range(SAMPLES):
        seconds, want = _timed_oracle(topology, demands, model)
        oracle_samples.append(seconds)
        seconds, got = _timed_route(topology, demands, model)
        engine_samples.append(seconds)
        assert _comparable(got) == _comparable(want), (
            f"engine diverged from the oracle: {label}"
        )
    stats = got[1]
    # Conservation: every packet is accounted for, one way or the other.
    assert stats.delivered + stats.dropped == n, (
        f"conservation violated: {label}"
    )
    # Path monotonicity: detours and retries never shorten total work.
    assert stats.total_hops >= baseline.stats.total_hops or stats.dropped, (
        f"faulted hops beat fault-free: {label}"
    )
    # The achieved step count must clear the fault-aware, drop-discounted
    # floor.  A BoundViolation is a failed benchmark run, never a row.
    cert = certify(
        topology,
        demands,
        stats.steps,
        fault_model=_enabled(model),
        dropped=stats.dropped,
        label=label,
    )
    engine = timing_summary(engine_samples)
    oracle = timing_summary(oracle_samples)
    return {
        "topology": topo_name,
        "n": n,
        "axis": axis,
        "amount": amount,
        "unroutable": False,
        "steps": stats.steps,
        "total_hops": stats.total_hops,
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "retried": stats.retried,
        "route_seconds": engine["median"],
        "route_samples": engine["samples"],
        "route_spread": engine["spread"],
        "oracle_seconds": oracle["median"],
        "oracle_samples": oracle["samples"],
        "oracle_spread": oracle["spread"],
        "speedup_vs_oracle": round(oracle["median"] / engine["median"], 2),
        "equivalent": True,
        "steps_vs_fault_free": round(stats.steps / baseline.stats.steps, 2),
        "hops_vs_fault_free": round(
            stats.total_hops / baseline.stats.total_hops, 2
        ),
        "bound": cert.bound,
        "bound_ratio": round(cert.ratio, 2)
        if cert.ratio is not None else None,
        "bound_kind": cert.binding,
        "certified": True,
    }


def run_faults_benchmark(
    sizes=FAULTS_SIZES,
    out_path: Path = FAULTS_ARTIFACT,
    speedup_sizes=SPEEDUP_SIZES,
    require_speedups: bool = True,
) -> dict:
    """Sweep the fault grid, assert the equivalence / conservation /
    monotonicity contracts on every row, write the artifact and return
    it."""
    rows = []
    for n in sizes:
        for topo_name, topology in _point_to_point(n):
            demands = _reversal(n)
            baseline = route_demands(topology, demands, cache=False)
            # The no-op contract, re-checked at benchmark scale.
            disabled = route_demands(
                topology, demands, fault_model=FaultModel(seed=FAULT_SEED),
                cache=False,
            )
            assert disabled.steps == baseline.steps
            assert disabled.stats == baseline.stats
            for fraction in LINK_FAIL_FRACTIONS:
                model = FaultModel(
                    seed=FAULT_SEED, link_fail_fraction=fraction
                )
                rows.append(_faulted_row(
                    topo_name, topology, n,
                    "link_fail_fraction", fraction, model, baseline,
                ))
            for drop_prob in DROP_PROBS[1:]:
                model = FaultModel(seed=FAULT_SEED, drop_prob=drop_prob)
                rows.append(_faulted_row(
                    topo_name, topology, n,
                    "drop_prob", drop_prob, model, baseline,
                ))

        side = math.isqrt(n)
        hm = Hypermesh2D(side)
        demands = _reversal(n)
        baseline = route_demands(hm, demands, cache=False)
        for count in DEGRADED_NET_COUNTS:
            model = FaultModel(
                seed=FAULT_SEED, degraded_nets=frozenset(range(count))
            )
            rows.append(_faulted_row(
                "hypermesh2d", hm, n,
                "degraded_nets", count, model, baseline,
            ))

    # Large-N speedup cells: where the engine core must actually pay for
    # itself against the scalar oracle.
    speedup_rows = []
    for n in speedup_sizes:
        topology = Mesh2D(math.isqrt(n))
        demands = _reversal(n)
        baseline = route_demands(topology, demands, cache=False)
        for axis, amount, model in (
            ("link_fail_fraction", 0.05,
             FaultModel(seed=FAULT_SEED, link_fail_fraction=0.05)),
            ("drop_prob", 0.2, FaultModel(seed=FAULT_SEED, drop_prob=0.2)),
        ):
            speedup_rows.append(_faulted_row(
                "mesh2d", topology, n, axis, amount, model, baseline,
            ))
    rows.extend(speedup_rows)

    routable = [r for r in rows if not r["unroutable"]]
    artifact = {
        "benchmark": "bench_faults.py::run_faults_benchmark",
        "engine": "repro.faults (FaultModel + FaultAwareRouter) through "
        "route_demands",
        "baseline": "the same demands routed fault-free; timings against "
        "the scalar oracle repro.sim._reference.route_oracle",
        "equivalence": "per row: schedule (step dicts in insertion order) "
        "and RoutingStats of every engine run bit-identical to the "
        "oracle's (equivalent: true); delivered + dropped == packets on "
        "every cell; disabled models reproduce the fault-free baseline "
        "exactly",
        "timing": f"one untimed warm-up run, then {SAMPLES} interleaved "
        "samples per side per row (oracle first); *_seconds is the median, *_spread is (max - min) / "
        "median, speedup_vs_oracle is the ratio of medians",
        "workload": "end-to-end reversal h-relation",
        "sizes": list(sizes),
        "speedup_sizes": list(speedup_sizes),
        "rows": rows,
        "unroutable_cells": sum(r["unroutable"] for r in rows),
        "worst_steps_overhead": max(
            r["steps_vs_fault_free"] for r in routable
        ),
        "worst_hops_overhead": max(
            r["hops_vs_fault_free"] for r in routable
        ),
    }
    cells = [r for r in speedup_rows if not r["unroutable"]]
    if cells:
        top = max(cells, key=lambda r: r["speedup_vs_oracle"])
        artifact["best_degraded_speedup"] = {
            "n": top["n"],
            "axis": top["axis"],
            "amount": top["amount"],
            "speedup_vs_oracle": top["speedup_vs_oracle"],
        }
        if require_speedups:
            assert top["speedup_vs_oracle"] >= SPEEDUP_FLOOR, (
                f"engine core below its {SPEEDUP_FLOOR}x floor over the "
                f"oracle on faulted cells: best {top['speedup_vs_oracle']}x"
            )
    out_path.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_perf_faults():
    """Full-size run: regenerates BENCH_faults.json with the equivalence,
    conservation and monotonicity contracts asserted on every row."""
    artifact = run_faults_benchmark()

    from conftest import emit
    from repro.viz import format_table

    emit(
        "Degraded-mode overhead: steps / hops vs injected fault severity",
        format_table(
            ["topology", "N", "axis", "amount", "steps", "dropped",
             "retried", "steps x", "hops x", "vs oracle"],
            [
                [
                    r["topology"],
                    r["n"],
                    r["axis"],
                    r["amount"],
                    "unroutable" if r["unroutable"] else r["steps"],
                    "-" if r["unroutable"] else r["dropped"],
                    "-" if r["unroutable"] else r["retried"],
                    "-" if r["unroutable"]
                    else f"{r['steps_vs_fault_free']:.2f}x",
                    "-" if r["unroutable"]
                    else f"{r['hops_vs_fault_free']:.2f}x",
                    "-" if r["unroutable"]
                    else f"{r['speedup_vs_oracle']:.2f}x",
                ]
                for r in artifact["rows"]
            ],
        ),
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="record BENCH_faults.json (degraded-mode overhead sweep)"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(FAULTS_SIZES),
        help="node counts to sweep (use a single small N for CI smoke)",
    )
    parser.add_argument(
        "--speedup-sizes",
        type=int,
        nargs="*",
        default=list(SPEEDUP_SIZES),
        help="large node counts for the engine-vs-oracle speedup cells "
        "(pass none to skip them)",
    )
    parser.add_argument(
        "--no-floors",
        action="store_true",
        help="record timings without enforcing the degraded speedup floor "
        "(smoke runs on loaded CI hosts)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=FAULTS_ARTIFACT,
        help="artifact path (default: repo-root BENCH_faults.json)",
    )
    args = parser.parse_args(argv)
    artifact = run_faults_benchmark(
        tuple(args.sizes), args.output,
        speedup_sizes=tuple(args.speedup_sizes),
        require_speedups=not args.no_floors,
    )
    routable = [r for r in artifact["rows"] if not r["unroutable"]]
    print(
        f"wrote {args.output}: {len(artifact['rows'])} rows "
        f"({artifact['unroutable_cells']} unroutable), worst overhead "
        f"{artifact['worst_steps_overhead']:.2f}x steps / "
        f"{artifact['worst_hops_overhead']:.2f}x hops over "
        f"{len(routable)} routable cells"
    )
    cell = artifact.get("best_degraded_speedup")
    if cell:
        print(
            f"  best {cell['speedup_vs_oracle']}x vs the oracle at "
            f"N={cell['n']} ({cell['axis']}={cell['amount']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
