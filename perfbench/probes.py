"""Per-layer probes for the traced run.

Each probe times calls into one layer's public functions, from outside,
on inputs fixed by the seed, so the per-layer numbers mean the same thing
in every workload's traced run and move only when that layer's cost
does.  A time is a median over repeats (``*_ms``) or a sum over a fixed
set of calls (``*_s``).
"""

from __future__ import annotations

import asyncio
import time

from common import Tracer, median, mkscratch, rmscratch

REPEATS = 20
PROBE_N = 1024
PAPER_ENTRIES = ("run_section_task", "sweep_task", "run_routing_task",
                 "run_commavoiding_task", "run_ape_fft_task")
NOOP_TASKS = 40


def noop(params: dict) -> dict:
    """A campaign / worker-pool entry point that does nothing."""
    return {"ok": True}


def timed_ms(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e3


def sim_probes(seed: int, tiny: bool) -> dict[str, float]:
    """Build, route, fault set-up and certify on one pass of fixed cells:
    every topology x workload intact, and the dense faulted cells."""
    import route_batch
    import serve_zipf
    from repro.sim import build_topology, build_workload

    sizes = (64,) if tiny else serve_zipf.SIZES
    t0 = time.perf_counter()
    for t in route_batch.TOPOLOGIES:
        for n in sizes:
            for w in route_batch.WORKLOADS:
                build_topology(t, n)
                build_workload(w, n, seed)
    build_s = time.perf_counter() - t0

    n = 64 if tiny else PROBE_N
    cells = [c for c in route_batch.prepare(seed, tiny)
             if c.n == n and (c.kind == "intact"
                              or c.workload == "dense-permutation")]
    tracer = Tracer()
    route_batch.run_pass(cells, seed, 0, tracer, split_setup=True)
    rollup = tracer.rollup()
    return {
        "sim.build_s": build_s,
        "sim.route_intact.busy_s": rollup["sim.route_intact"]["total_s"],
        "sim.route_faulted.busy_s": rollup["sim.route_faulted"]["total_s"],
        "faults.setup_s": rollup["faults.setup"]["total_s"],
        "bounds.certify_s": rollup["bounds.certify"]["total_s"],
    }


def plancache_probes(seed: int, tiny: bool) -> dict[str, float]:
    """Key digest, memory and disk lookups and a store of one mesh plan."""
    from repro.sim import (PlanCache, build_topology, build_workload,
                           plan_key, route_demands, router_for)

    n = 64 if tiny else PROBE_N
    topo = build_topology("mesh2d", n)
    sources, dests = build_workload("dense-permutation", n, seed)
    router = router_for(topo)

    def key():
        return plan_key(topo, sources, dests, router, "overtaking", None)

    k = key()
    root = mkscratch("plancache-")
    try:
        cache = PlanCache(root)
        route_demands(topo, list(zip(sources, dests)), cache=cache)
        plan = cache.get(k)
        blob_bytes = cache.blob_path(k).stat().st_size
        out = {
            "plancache.key_ms": timed_ms(key),
            "plancache.get_memory_ms": timed_ms(lambda: cache.get(k)),
            "plancache.get_disk_ms": timed_ms(lambda: PlanCache(root).get(k)),
            "plancache.put_ms": timed_ms(lambda: PlanCache(root).put(k, plan)),
            "plancache.blob_bytes": blob_bytes,
        }
    finally:
        rmscratch(root)
    return out


def service_probes(seed: int, tiny: bool) -> dict[str, float]:
    """Request validation, one in-process route job, one worker-pool
    round trip, and the HTTP floor of a spawned server."""
    from repro.service.jobs import RouteRequest, execute_route
    from repro.service.pool import WorkerPool
    from serve_zipf import Server

    n = 64 if tiny else PROBE_N
    body = {"topology": "mesh2d", "n": n, "workload": "dense-permutation",
            "seed": seed}
    job = RouteRequest.from_body(body)

    roots = []

    def execute():
        root = mkscratch("execute-")
        roots.append(root)
        execute_route(job.to_params(str(root)))

    async def pool_round_trips():
        pool = WorkerPool(1)
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            await pool.submit(noop, {}, timeout=60)
            samples.append(time.perf_counter() - t0)
        return median(samples) * 1e3

    try:
        out = {
            "service.validate_ms": timed_ms(lambda: RouteRequest.from_body(body)),
            "service.execute_route_ms": timed_ms(execute, repeats=5),
            "service.pool_job_ms": asyncio.run(pool_round_trips()),
        }
    finally:
        for root in roots:
            rmscratch(root)
    with Server(workers=1) as server:
        out["service.healthz_ms"] = timed_ms(server.client.healthz, 50)
        server.stop()
    return out


def campaign_probes(seed: int, tiny: bool) -> dict[str, float]:
    """Dispatch cost per task of a campaign of no-op tasks, and the paper
    pipeline's per-entry task time and rendering time."""
    from repro.campaign import run_campaign
    from repro.campaign.spec import CampaignSpec, TaskSpec

    import paper_full

    spec = CampaignSpec("perfbench-noop", tuple(
        TaskSpec("probes:noop", {"seed": seed, "i": i})
        for i in range(NOOP_TASKS)))
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_campaign(spec, None, workers=paper_full.WORKERS)
        walls.append(time.perf_counter() - t0)

    paper = paper_full.spawn_regeneration(seed, 0,
                                          paper_full.profile_name(tiny))
    out = {"campaign.dispatch_ms": median(walls) / NOOP_TASKS * 1e3}
    for entry in PAPER_ENTRIES:
        out[f"campaign.task_s.{entry}"] = paper["task_s"].get(entry, 0.0)
    out["paper.render_s"] = paper["wall"] - paper["campaign_wall"]
    return out


def probe_all(seed: int, tiny: bool) -> dict[str, float]:
    out: dict[str, float] = {}
    for probe in (sim_probes, plancache_probes, service_probes,
                  campaign_probes):
        out.update(probe(seed, tiny))
    return out
