"""``route-batch``: offline library use, closed loop, one process per pass.

A fixed seeded list of ``route_demands(...)`` calls, each followed by
``repro.bounds.certify``, with the library defaults (no ``backend=``, no
plan cache).  Intact cells cover every topology and workload at
N = 1024 and 4096 plus the N = 16384 mesh/torus dense permutations;
faulted cells at N = 1024 each get a fresh ``FaultModel`` seed, the way a
chaos sweep does, so every faulted call pays the fault layer's set-up.

Why this workload: ``repro.sim`` and ``repro.faults`` do nearly all the
work; the plan cache, the service and the campaign runner do none.

Each pass runs in a fresh interpreter, as a batch script would:
``resolve_faults`` keeps every fresh model's resolution for as long as
its topology lives, so passes sharing one process would each start with
more retained memory than the last.  A run makes at least two passes,
whatever ``--seconds`` says, so the pass median has two samples and the
intact cells' outcomes are compared across two real runs; it makes more
only while one more still fits in ``--seconds``.  Each pass also runs
the host-speed kernel before every call and after the last
(:class:`hostspeed.HostSpeed`); each call's time is scaled by the mean
of the two kernels on either side of it, and ``job_p50_ms`` is the
median over passes of the summed scaled times.

Mesh2D is left out of the faulted cells: its degree-2 corners make a
sampled link failure partition the machine often enough that some runs
would hit ``UnroutableError``.  Torus link failures (1%) and hypercube
link failures (3%) isolate a node with probability below 1e-5 per cell.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from common import (DEFAULT_SEED, NULL_TRACER, ROOT, Tracer, WorkloadResult,
                    child_env, digest, latency_summary, median,
                    self_peak_rss_mb, setup_paths, within_budget)
from hostspeed import HostSpeed, factor_of

TOPOLOGIES = ("mesh2d", "torus2d", "hypercube", "hypermesh2d")
WORKLOADS = ("dense-permutation", "bit-reversal", "sparse-hrelation")
FAULTED_TOPOLOGIES = ("torus2d", "hypercube", "hypermesh2d")
LINK_FAIL_FRACTION = {"torus2d": 0.01, "hypercube": 0.03}
DROP_PROB = 0.05
RETRY_LIMIT = 3

#: Passes every run makes, however short ``--seconds`` is.
MIN_PASSES = 2

GOLDEN = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Cell:
    kind: str  # "intact" or "faulted"
    topology_name: str
    workload: str
    n: int
    topology: object
    demands: list

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.topology_name}:{self.workload}:{self.n}"


def prepare(seed: int, tiny: bool) -> list[Cell]:
    """Build every topology and demand list of the batch (the set-up)."""
    from repro.sim import build_topology, build_workload

    sizes = (64, 256) if tiny else (1024, 4096)
    intact = [(t, w, n) for n in sizes for t in TOPOLOGIES for w in WORKLOADS]
    if not tiny:
        intact += [("mesh2d", "dense-permutation", 16384),
                   ("torus2d", "dense-permutation", 16384)]
    n_faulted = 64 if tiny else 1024
    faulted = [(t, w, n_faulted) for t in FAULTED_TOPOLOGIES for w in WORKLOADS]
    topologies: dict = {}
    cells = []
    for kind, shapes in (("intact", intact), ("faulted", faulted)):
        for t, w, n in shapes:
            topo = topologies.get((t, n))
            if topo is None:
                topo = topologies[(t, n)] = build_topology(t, n)
            sources, dests = build_workload(w, n, seed)
            cells.append(Cell(kind, t, w, n, topo, list(zip(sources, dests))))
    return cells


def fault_model(cell: Cell, seed: int, pass_index: int, index: int):
    """A fresh seeded fault model per (run seed, pass, cell)."""
    from repro.faults import FaultModel

    blob = f"{seed}:{pass_index}:{index}".encode()
    fseed = int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")
    if cell.topology_name == "hypermesh2d":
        return FaultModel(
            seed=fseed,
            degraded_nets=frozenset({fseed % cell.topology.num_nets()}),
            drop_prob=DROP_PROB, retry_limit=RETRY_LIMIT,
        )
    return FaultModel(
        seed=fseed, link_fail_fraction=LINK_FAIL_FRACTION[cell.topology_name],
        drop_prob=DROP_PROB, retry_limit=RETRY_LIMIT,
    )


def route_cell(cell: Cell, model, tracer=NULL_TRACER,
               split_setup: bool = False):
    """One library call pair: route the cell, certify its step count.

    With ``split_setup`` (the per-layer probe only) the fault layer's
    set-up (resolve + routability screen) is timed on its own first, so
    the routing span that follows runs with the resolution warm.  That is
    extra work, so the workload's own passes, traced or not, leave it
    inside route_demands.
    """
    from repro.bounds import certify
    from repro.sim import route_demands

    with tracer.span("route-batch.call", cell=cell.label):
        if model is not None and split_setup:
            from repro.faults import FaultAwareRouter, resolve_faults
            from repro.sim import router_for

            with tracer.span("faults.setup"):
                resolved = resolve_faults(model, cell.topology)
                sources = [s for s, _ in cell.demands]
                dests = [d for _, d in cell.demands]
                FaultAwareRouter(cell.topology, router_for(cell.topology),
                                 resolved).check_routable(sources, dests)
        with tracer.span(f"sim.route_{cell.kind}"):
            routed = route_demands(cell.topology, cell.demands,
                                   fault_model=model)
        stats = routed.stats
        with tracer.span("bounds.certify"):
            certify(cell.topology, cell.demands, stats.steps,
                    fault_model=model, dropped=stats.dropped)
    return stats


def outcome(stats) -> list[int]:
    return [stats.steps, stats.total_hops, stats.delivered, stats.dropped]


@dataclass
class Row:
    """One timed call: the cell, its wall time, and its outcome
    ``[steps, total_hops, delivered, dropped]`` or the error it raised."""

    label: str
    kind: str
    packets: int
    seconds: float
    outcome: list | None
    error: str = ""


def run_pass(cells, seed, pass_index, tracer=NULL_TRACER,
             split_setup: bool = False, speed=None) -> list[Row]:
    """Route and certify every cell once; with a :class:`HostSpeed`, run
    one speed kernel before each call and one after the last, so every
    call has a kernel on either side."""
    rows = []
    for index, cell in enumerate(cells):
        if speed is not None:
            speed.tick()
        model = (fault_model(cell, seed, pass_index, index)
                 if cell.kind == "faulted" else None)
        t0 = time.perf_counter()
        try:
            stats = route_cell(cell, model, tracer, split_setup)
        except Exception as exc:  # a failed call is counted, not fatal
            rows.append(Row(cell.label, cell.kind, len(cell.demands),
                            time.perf_counter() - t0, None,
                            f"{type(exc).__name__}: {exc}"))
        else:
            rows.append(Row(cell.label, cell.kind, len(cell.demands),
                            time.perf_counter() - t0, outcome(stats)))
    if speed is not None:
        speed.tick()
    return rows


def child_pass(seed: int, pass_index: int, tiny: bool, traced: bool) -> dict:
    """The body of one pass's process: build the batch, run it, and report
    the rows, the spans, the speed kernels' times and the process's peak
    resident set."""
    tracer = Tracer() if traced else NULL_TRACER
    speed = HostSpeed()
    rows = run_pass(prepare(seed, tiny), seed, pass_index, tracer,
                    speed=speed)
    return {"rows": [asdict(row) for row in rows],
            "spans": tracer.spans if traced else [],
            "kernel_s": speed.samples,
            "peak_rss_mb": self_peak_rss_mb()}


def spawn_pass(seed: int, pass_index: int, tiny: bool, traced: bool):
    """Run :func:`child_pass` in a fresh interpreter and wait for it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(seed),
         str(pass_index), str(int(tiny)), str(int(traced))],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_index} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    rows = [Row(**row) for row in out["rows"]]
    kernels = out["kernel_s"]  # one before each call, one after the last
    at_reference = sum(row.seconds * factor_of(kernels[i:i + 2])
                       for i, row in enumerate(rows))
    return rows, out["spans"], out["peak_rss_mb"], at_reference


def pass_digest(rows) -> str:
    return digest([[row.label, row.outcome] for row in rows])


def reference_digest() -> str:
    """Digest of the default-seed tiny batch: pins routing semantics."""
    return pass_digest(run_pass(prepare(DEFAULT_SEED, tiny=True),
                                DEFAULT_SEED, 0))


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def run(seed: int, seconds: float, *, tiny: bool = False, setup_s: float,
        tracer=NULL_TRACER) -> WorkloadResult:
    passes, peaks, scaled = [], [], []
    t_start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or within_budget(t_start, len(passes), seconds)):
        rows, spans, peak, at_reference = spawn_pass(
            seed, len(passes), tiny, tracer.enabled)
        passes.append(rows)
        peaks.append(peak)
        scaled.append(at_reference)
        if tracer.enabled:
            tracer.adopt(spans)
    calls = [row for rows in passes for row in rows]
    ok = [row for row in calls if row.outcome is not None]
    failed = len(calls) - len(ok)

    def hops_per_s(rows):
        seconds = sum(r.seconds for r in rows)
        return sum(r.outcome[1] for r in rows) / seconds if seconds else 0.0

    batch = [sum(r.seconds for r in rows) for rows in passes]
    result = WorkloadResult(
        metrics={
            "job_p50_ms": median(scaled) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": max(peaks),
        },
        attempted=len(calls),
        failed=failed,
        counts={"sim.route_intact.calls":  # per pass
                sum(1 for r in calls if r.kind == "intact") // len(passes)},
        record={
            "passes": latency_summary(batch),
            "passes_at_reference_speed": latency_summary(scaled),
            "speed_factors": [s / b for s, b in zip(scaled, batch)],
            "pass_s": batch,
            "pass_faulted_s": [sum(r.seconds for r in rows
                                   if r.kind == "faulted")
                               for rows in passes],
            "calls": latency_summary([r.seconds for r in calls]),
            "hops_per_s": hops_per_s(ok),
            "intact_hops_per_s": hops_per_s(
                [r for r in ok if r.kind == "intact"]),
            "faulted_hops_per_s_setup_included": hops_per_s(
                [r for r in ok if r.kind == "faulted"]),
            "sim_steps_pass0": sum(r.outcome[0] for r in passes[0]
                                   if r.outcome),
            "pass0_digest": pass_digest(passes[0]),
            "errors": sorted({r.error for r in calls if r.error})[:5],
        },
    )
    result.check("every call routed and certified", failed == 0,
                 "; ".join(result.record["errors"]))
    conserved = all(r.outcome[2] + r.outcome[3] == r.packets for r in ok)
    result.check("delivered + dropped == packets", conserved)
    intact_runs = [[r.outcome for r in rows if r.kind == "intact"]
                   for rows in passes]
    result.check("intact cells repeat exactly across passes",
                 all(run == intact_runs[0] for run in intact_runs))
    pinned = golden()
    got = reference_digest()
    result.check("default-seed reference digest",
                 got == pinned["route-batch/reference"],
                 f"got {got}, pinned {pinned['route-batch/reference']}")
    if seed == DEFAULT_SEED and not tiny:
        got = result.record["pass0_digest"]
        result.check("default-seed batch digest",
                     got == pinned["route-batch/seed0"],
                     f"got {got}, pinned {pinned['route-batch/seed0']}")
    return result


if __name__ == "__main__":
    setup_paths()
    seed_arg, pass_arg, tiny_arg, traced_arg = map(int, sys.argv[1:5])
    print(json.dumps(child_pass(seed_arg, pass_arg, bool(tiny_arg),
                                bool(traced_arg))))
