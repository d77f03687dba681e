"""``serve-zipf``: the HTTP routing service under an open-loop Zipf load.

The server is ``python -m repro serve`` in its own process, so the load
generator (this process, at most ``nproc`` connections) never shares an
interpreter lock with it.  Requests draw keys with Zipf popularity from a
population larger than the server's 256-entry memory LRU: four
topologies x N in {256, 1024} x three workloads x 24 seeds (bit-reversal
ignores the seed, so its 24 bodies per shape share one plan: 392 distinct
plans).  Zipf ranks cycle through the 24 (topology, N, workload) classes
in a fixed order, so every seed puts the same classes at the same ranks
and only the instances change.  A closed-loop warm-up plans the
population from the most to the least popular rank, skipping every
seventh rank: the most popular plans spill from the LRU to the disk tier
and the skipped ones stay cold, so the measured phases see memory hits,
disk hits and cold computations (blob writes beside reads) in shares
that depend on the draws, not on which keys a seed happened to warm.
Every fiftieth request asks for an N = 16384 cell on the hypercube or
hypermesh; the warm-up plans those last, so in the measured phases they
pay the topology build and plan-key digest that run on the event loop,
not a cold computation.

Phases: warm-up (closed loop, unmeasured), open loop at a fixed rate
(latency timed from each request's due time, so a stall is charged to
every request it delays), settle (closed loop, unmeasured: every key of
the population once, so no plan is cold any more), then saturation
(closed loop, same mix).  Saturation thus measures the steady state of
memory and disk hits; left to meet the remaining cold plans, its
throughput would depend on how many of them a seed draws in the window
and would climb through the phase as they are computed.  The
``/v1/stats`` counts are the deltas over the open-loop phase alone: its
seeded job list is fixed, so they depend on the traffic and not on how
fast the server is.  A :class:`hostspeed.SpeedSampler` runs beside
the spawns and the open loop; ``job_p50_ms`` and ``setup_s`` are given
at the reference speed.

The traffic shape is assumed, not taken from measured traffic.  The
rate, 30 req/s, is a few percent of the saturation throughput (500 to
1000 req/s on a 2-CPU host), so the open loop measures service time and
rarely queueing.  The Zipf exponent 1.0, the one-in-seven cold ranks and
the 2% of N = 16384 requests are round choices that make every tier of
the plan cache take part; they are not tuned to a target mix.

Why this workload: ``repro.service`` and ``repro.sim.plancache`` do most
of the work; ``repro.faults`` and ``repro.campaign`` do none.
"""

from __future__ import annotations

import bisect
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (NULL_TRACER, WorkloadResult, child_env, latency_summary,
                    median, mkscratch, percentile, rmscratch)
from hostspeed import SpeedSampler
from route_batch import TOPOLOGIES, WORKLOADS

SIZES = (256, 1024)
KEY_SEEDS = 24
BIG_CELLS = [(t, w, 16384) for t in ("hypercube", "hypermesh2d")
             for w in ("dense-permutation", "bit-reversal")]
BIG_SEEDS = 2
#: Every ``BIG_EVERY``-th request is an N = 16384 one (2%).
BIG_EVERY = 50
ZIPF_EXPONENT = 1.0
RATE = 30.0
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Ranks ``COLD_EVERY - 1, 2 * COLD_EVERY - 1, ...`` are left out of the
#: warm-up.
COLD_EVERY = 7
#: Share of the measured seconds spent in the open-loop phase, which gives
#: the end-to-end latency; the rest is the saturation phase, which only
#: the run record reports.
OPEN_SHARE = 0.8
#: Server spawns timed for ``setup_s``; the last one is the measured server.
SETUP_SPAWNS = 7
#: Distinct digests re-routed in-process to check the served stats.
VERIFY_SAMPLE = 6
STATS_FIELDS = ("steps", "total_hops", "max_queue_depth", "blocked_moves",
                "delivered", "dropped", "retried")


# ------------------------------------------------------------------- server
class Server:
    """``python -m repro serve`` on an ephemeral port over an empty plan
    root; ``setup_s`` is spawn to the first 200 from ``/v1/healthz``."""

    def __init__(self, workers: int = CONNECTIONS, start_timeout: float = 60.0):
        from repro.service import ServiceClient

        self.dir = mkscratch("serve-")
        self.root = self.dir / "plans"
        self.final_line = ""
        t0 = self.spawned_at = time.perf_counter()
        self._stderr = open(self.dir / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--root", str(self.root), "--workers", str(workers)],
            cwd=self.dir, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        start_timeout)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.client = ServiceClient("127.0.0.1", int(match.group(1)),
                                        timeout=30.0)
            self.client.wait_ready(attempts=int(start_timeout / 0.005),
                                   delay=0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kib / 1024.0

    def stop(self) -> str:
        """SIGTERM, wait for the drain, and return the final counters line."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        self._stderr.close()
        served = [l for l in out.splitlines() if l.startswith("served ")]
        self.final_line = served[-1] if served else ""
        rmscratch(self.dir)
        return self.final_line

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.stop()


# ------------------------------------------------------------------ traffic
def population(seed: int, tiny: bool) -> tuple[list[dict], list[dict]]:
    """The small-N key population in Zipf rank order, and the big keys."""
    sizes = (64,) if tiny else SIZES
    seeds = 4 if tiny else KEY_SEEDS
    keys = [{"topology": t, "n": n, "workload": w, "seed": seed * 1000 + k}
            for k in range(seeds)
            for w in WORKLOADS for t in TOPOLOGIES for n in sizes]
    big = [{"topology": t, "n": 1024 if tiny else n, "workload": w,
            "seed": seed * 1000 + k}
           for t, w, n in BIG_CELLS for k in range(BIG_SEEDS)]
    return keys, big


class Mix:
    """Seeded Zipf draws over the population; every ``BIG_EVERY``-th draw
    is one of the big keys instead."""

    def __init__(self, keys, big, seed: int):
        self.keys, self.big = keys, big
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(keys))]
        total = 0.0
        self.cum = []
        for w in weights:
            total += w
            self.cum.append(total)
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.draws = 0

    def draw(self) -> dict:
        with self.lock:
            self.draws += 1
            if self.draws % BIG_EVERY == 0:
                return self.big[self.rng.randrange(len(self.big))]
            u = self.rng.random() * self.cum[-1]
            return self.keys[bisect.bisect_left(self.cum, u)]


@dataclass
class Sample:
    phase: str
    due: float
    sent: float
    end: float
    status: int | None
    body: dict
    job: dict

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        """Seconds from due time to response; a failure misses any limit."""
        return self.end - self.due if self.ok else float("inf")


def send(client, job: dict, due: float, phase: str, tracer) -> Sample:
    from repro.service import ServiceError

    sent = time.perf_counter()
    with tracer.span("service.request", phase=phase):
        try:
            resp = client.route(job)
            status, body = resp.status, resp.body
        except ServiceError as exc:
            status, body = None, {"error": str(exc)}
    return Sample(phase, due, sent, time.perf_counter(), status, body, job)


def feed(jobs):
    """A thread-safe ``next_job`` over ``jobs``: ``None`` once they are
    all taken."""
    it = iter(jobs)
    lock = threading.Lock()

    def next_job():
        with lock:
            return next(it, None)

    return next_job


def closed_loop(client, next_job, phase: str, tracer, deadline=None):
    """``CONNECTIONS`` clients, each sending its next job on a reply."""
    samples: list[Sample] = []
    lock = threading.Lock()

    def worker():
        while deadline is None or time.perf_counter() < deadline:
            job = next_job()
            if job is None:
                return
            now = time.perf_counter()
            sample = send(client, job, now, phase, tracer)
            with lock:
                samples.append(sample)

    run_clients(worker)
    return samples


def open_loop(client, jobs, rate: float, tracer):
    """Send ``jobs[i]`` at ``start + i / rate`` over ``CONNECTIONS``
    connections, whatever the replies are doing."""
    samples: list[Sample | None] = [None] * len(jobs)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(jobs):
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            samples[i] = send(client, jobs[i], due, "open", tracer)

    run_clients(worker)
    return samples


def run_clients(worker) -> None:
    """Run ``worker`` on ``CONNECTIONS`` threads and wait for all."""
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def tally(samples) -> dict:
    ok = sum(1 for s in samples if s.ok)
    return {"sent": len(samples), "ok": ok, "failed": len(samples) - ok}


def stats_counts(client) -> dict:
    body = client.stats().body
    return {
        "plancache.hits": body["plancache"]["hits"],
        "plancache.misses": body["plancache"]["misses"],
        "plancache.evictions": body["plancache"]["evictions"],
        "service.warm": body["service"]["warm"],
        "service.cold": body["service"]["cold"],
        "service.coalesced": body["service"]["coalesced"],
    }


def verify_sample(samples, seed: int) -> tuple[bool, str]:
    """Identical stats per digest; a seeded sample equals in-process
    routing of the same job."""
    from repro.sim import build_topology, build_workload, route_demands

    by_digest: dict[str, tuple] = {}
    for s in samples:
        if not s.ok:
            continue
        stats = tuple(s.body["stats"][f] for f in STATS_FIELDS)
        prior = by_digest.setdefault(s.body["digest"], (stats, s.job))
        if prior[0] != stats:
            return False, f"digest {s.body['digest']} served two stats"
    digests = sorted(by_digest)
    random.Random(seed).shuffle(digests)
    for d in digests[:VERIFY_SAMPLE]:
        served, job = by_digest[d]
        topo = build_topology(job["topology"], job["n"])
        sources, dests = build_workload(job["workload"], job["n"], job["seed"])
        stats = route_demands(topo, list(zip(sources, dests)), cache=False).stats
        local = tuple(getattr(stats, f) for f in STATS_FIELDS)
        if local != served:
            return False, f"{job}: served {served}, in-process {local}"
    return True, f"{len(by_digest)} digests consistent, " \
                 f"{min(len(digests), VERIFY_SAMPLE)} re-routed"


# --------------------------------------------------------------------- run
def run(seed: int, seconds: float, *, tiny: bool = False,
        tracer=NULL_TRACER) -> WorkloadResult:
    keys, big = population(seed, tiny)
    open_seconds = seconds * OPEN_SHARE
    sat_seconds = seconds - open_seconds

    spawns = []  # (start, seconds) of every server spawn
    with SpeedSampler() as sampler:
        for _ in range(SETUP_SPAWNS - 1):
            with Server() as throwaway:
                spawns.append((throwaway.spawned_at, throwaway.setup_s))
        with Server() as server:
            spawns.append((server.spawned_at, server.setup_s))
            root_empty = (not server.root.exists()
                          or not any(server.root.iterdir()))
            client = server.client

            warm_keys = [key for rank, key in enumerate(keys)
                         if (rank + 1) % COLD_EVERY] + big
            warmup = closed_loop(client, feed(warm_keys), "warmup", tracer)

            before = stats_counts(client)
            mix = Mix(keys, big, seed + 2)
            jobs = [mix.draw()
                    for _ in range(max(1, int(RATE * open_seconds)))]
            t_open = time.perf_counter()
            measured = open_loop(client, jobs, RATE, tracer)
            open_span = (t_open, time.perf_counter())
            after = stats_counts(client)
            settle = closed_loop(client, feed(keys + big), "settle", tracer)
            t_sat = time.perf_counter()
            saturated = closed_loop(client, mix.draw, "saturation", tracer,
                                    deadline=t_sat + sat_seconds)
            sat_elapsed = time.perf_counter() - t_sat
            peak_rss = server.peak_rss_mb()
            final_line = server.stop()

    open_factor = sampler.factor(*open_span)
    spawn_times = [wall for _, wall in spawns]
    spawn_scaled = [wall * sampler.factor(start, start + wall)
                    for start, wall in spawns]
    every = warmup + measured + settle + saturated
    latencies = [s.latency for s in measured]
    finite = [s.end - s.due for s in measured]
    by_source = {src: [s.end - s.due for s in measured
                       if s.ok and s.body.get("source") == src]
                 for src in ("warm", "cold", "coalesced")}
    lateness = [s.sent - s.due for s in measured]
    attempted = len(measured) + len(saturated)
    failed = sum(1 for s in measured + saturated if not s.ok)
    result = WorkloadResult(
        metrics={
            "job_p50_ms": median(latencies) * open_factor * 1e3,
            "setup_s": median(spawn_scaled),
            "peak_rss_mb": peak_rss,
        },
        attempted=attempted,
        failed=failed,
        record={
            "stats_deltas": {k: after[k] - before[k] for k in after},
            "rate_per_s": RATE,
            "connections": CONNECTIONS,
            "phases": {"warmup": tally(warmup), "open": tally(measured),
                       "settle": tally(settle),
                       "saturation": tally(saturated)},
            "open_latency": latency_summary(finite),
            "open_speed_factor": open_factor,
            "by_source": {k: latency_summary(v) for k, v in by_source.items()},
            "saturation_rps": sum(1 for s in saturated if s.ok) / sat_elapsed,
            "lateness_ms": {"p50": percentile(lateness, 50) * 1e3,
                            "p99": percentile(lateness, 99) * 1e3},
            "spawn_s": spawn_times,
            "server_final": final_line,
        },
    )
    result.check("plan root empty at start", root_empty)
    result.check("no failed request in any phase",
                 all(s.ok for s in every),
                 str([s.body for s in every if not s.ok][:3]))
    result.check("server drained and reported its counters",
                 final_line.startswith("served "), final_line)
    result.check("served stats match in-process routing",
                 *verify_sample(every, seed))
    return result
