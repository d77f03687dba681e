"""``paper-full``: regenerate the whole paper with ``repro.paper.run_paper``.

Each regeneration runs ``run_paper(profile="full", workers=2)`` with its
default relative roots inside a fresh, empty working directory, so the
campaign store (``results/campaigns``) and the plan cache
(``results/plans``) start cold every time: a run in a directory holding a
previous run's store would be served from it and measure nothing.  The
output is diffed cell by cell against the committed goldens under
``results/paper/golden/full``.

Each regeneration runs in a fresh interpreter, which reports its own
wall time of ``run_paper`` and the peak resident set of itself and its
campaign workers, so ``peak_rss_mb`` is this workload's and no other's.
A :class:`hostspeed.SpeedSampler` runs beside the regenerations, and
``job_p50_ms`` is the median regeneration time at the reference speed.

The paper's inputs are fixed by the profile; the seed only names the
working directories.

Why this workload: it makes many small staged ``SimdMachine`` exchanges
(systolic and hyper-systolic convolution, the APE four-step FFT) where
``route-batch`` makes a few large routing calls, so a cut to the engine's
per-step fixed cost shows here.  ``repro.campaign`` and ``repro.paper``
run only here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import (NULL_TRACER, ROOT, Tracer, WorkloadResult, child_env,
                    latency_summary, median, mkscratch, rmscratch,
                    self_peak_rss_mb, setup_paths, within_budget)
from hostspeed import SpeedSampler

WORKERS = 2


def profile_name(tiny: bool) -> str:
    return "smoke" if tiny else "full"


def prepare(seed: int, tiny: bool):
    """Expand the paper into its campaign (the set-up)."""
    from repro.paper.sections import paper_campaign

    return paper_campaign(profile_name(tiny))


def regenerate(seed: int, index: int, profile: str, tracer=NULL_TRACER):
    """One ``run_paper`` in a fresh working directory; returns a JSON-ready
    dict with the wall time, the campaign's summary, the golden report and
    per-entry task time."""
    from repro.paper import run_paper
    from repro.paper.golden import check_goldens

    cwd = mkscratch(f"paper-{seed}-{index}-")
    plans_empty = not (cwd / "results" / "plans").exists()
    task_s: dict[str, float] = defaultdict(float)

    def progress(record):
        task_s[record.entry.rsplit(":", 1)[-1]] += record.wall_seconds

    os.chdir(cwd)
    try:
        t0 = time.perf_counter()
        with tracer.span("paper.run_paper"):
            result = run_paper(profile=profile, workers=WORKERS,
                               progress=progress)
        wall = time.perf_counter() - t0
    finally:
        os.chdir(ROOT)
    golden_dir = ROOT / "results" / "paper" / "golden" / profile
    report = check_goldens(result.artifacts, cwd / "results" / "paper",
                           profile, golden_dir=golden_dir)
    golden_tables = sum(1 for _ in golden_dir.glob("*/*.json"))
    rmscratch(cwd)
    summary = result.campaign.summary
    return {
        "start": t0,
        "wall": wall,
        "campaign_wall": summary.wall_seconds,
        "tasks": len(result.campaign.records),
        "failed_sections": result.failed_sections,
        "cache_hits": summary.cache_hits,
        "report": {"ok": report.ok, "checked": report.checked,
                   "diffs": len(report.diffs), "missing": len(report.missing),
                   "unexpected": len(report.unexpected)},
        "golden_tables": golden_tables,
        "plans_empty": plans_empty,
        "task_s": dict(task_s),
    }


def child_regeneration(seed: int, index: int, profile: str,
                       traced: bool) -> dict:
    """The body of one regeneration's process: the run, its spans and the
    peak resident set of this process and its reaped campaign workers."""
    tracer = Tracer() if traced else NULL_TRACER
    out = regenerate(seed, index, profile, tracer)
    out["spans"] = tracer.spans if traced else []
    out["peak_rss_mb"] = self_peak_rss_mb()
    return out


def spawn_regeneration(seed: int, index: int, profile: str,
                       traced: bool = False) -> dict:
    """Run :func:`child_regeneration` in a fresh interpreter and wait."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(seed),
         str(index), profile, str(int(traced))],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"regeneration {index} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run(seed: int, seconds: float, *, tiny: bool = False, setup_s: float,
        tracer=NULL_TRACER) -> WorkloadResult:
    profile = profile_name(tiny)
    runs = []
    t_start = time.perf_counter()
    with SpeedSampler() as sampler:
        while not runs or within_budget(t_start, len(runs), seconds):
            runs.append(spawn_regeneration(seed, len(runs), profile,
                                           tracer.enabled))
            if tracer.enabled:
                tracer.adopt(runs[-1]["spans"])

    walls = [r["wall"] for r in runs]
    factors = [sampler.factor(r["start"], r["start"] + r["wall"])
               for r in runs]
    scaled = [wall * f for wall, f in zip(walls, factors)]
    tasks = sum(r["tasks"] for r in runs)
    bad = [r for r in runs if r["failed_sections"]]
    result = WorkloadResult(
        metrics={
            "job_p50_ms": median(scaled) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        },
        attempted=len(runs),
        failed=len(bad),
        record={
            "regenerations": latency_summary(walls),
            "regenerations_at_reference_speed": latency_summary(scaled),
            "speed_factors": factors,
            "regeneration_s": walls,
            "tasks_per_run": tasks // len(runs),
            "tasks_per_s": tasks / len(runs) / median(walls),
            "campaign_s": median([r["campaign_wall"] for r in runs]),
        },
    )
    result.check("every section rendered", not bad,
                 str([r["failed_sections"] for r in bad][:1]))
    reports = [(r["report"], r["golden_tables"]) for r in runs]
    result.check(
        "goldens: zero diffs, missing and unexpected",
        all(rep["ok"] and rep["checked"] == tables > 0
            for rep, tables in reports),
        "; ".join(sorted({
            f"checked {rep['checked']}/{tables}, {rep['diffs']} diffs, "
            f"{rep['missing']} missing, {rep['unexpected']} unexpected"
            for rep, tables in reports})),
    )
    result.check("plan root empty at start",
                 all(r["plans_empty"] for r in runs))
    hits = [r["cache_hits"] for r in runs]
    result.check("campaign ran cold (cache_hits == 0)", not any(hits),
                 f"cache_hits {hits}")
    return result


if __name__ == "__main__":
    setup_paths()
    print(json.dumps(child_regeneration(int(sys.argv[1]), int(sys.argv[2]),
                                        sys.argv[3], bool(int(sys.argv[4])))))
