"""Built-in campaign definitions.

These are the sweeps the repo itself runs (``repro campaign run <name>``):
the paper's evaluations are organized as grids over (machine size x topology
x workload), and these specs encode them declaratively.
"""

from __future__ import annotations

from .spec import CampaignSpec, TaskSpec

__all__ = ["BUILTIN_CAMPAIGNS", "builtin_campaign", "list_builtin_campaigns"]

#: Even powers of two only: every topology in the grid needs a square side
#: (mesh/hypermesh) and a power-of-two node count (hypercube).
ENGINE_SWEEP_SIZES = (64, 256, 1024, 4096)
ENGINE_SWEEP_TOPOLOGIES = ("mesh2d", "hypercube", "hypermesh2d")
ENGINE_SWEEP_WORKLOADS = ("dense-permutation", "bit-reversal", "sparse-hrelation")


def _engine_sweep() -> CampaignSpec:
    """3 topologies x 4 sizes x 3 workloads = 36 routing tasks (the
    engine scaling sweep, recast as a campaign grid)."""
    return CampaignSpec.from_grid(
        "engine-sweep",
        "repro.sim.task:run_routing_task",
        {
            "topology": list(ENGINE_SWEEP_TOPOLOGIES),
            "n": list(ENGINE_SWEEP_SIZES),
            "workload": list(ENGINE_SWEEP_WORKLOADS),
        },
        base={"seed": 99, "arbitration": "overtaking"},
        meta={
            "description": "word-level routing engine sweep "
            "(topology x N x workload), fixed seeds",
        },
    )


def _engine_sweep_small() -> CampaignSpec:
    """A 2-minute-class subset for CI smoke and local sanity checks."""
    return CampaignSpec.from_grid(
        "engine-sweep-small",
        "repro.sim.task:run_routing_task",
        {
            "topology": ["mesh2d", "hypermesh2d"],
            "n": [64, 256],
            "workload": ["dense-permutation", "sparse-hrelation"],
        },
        base={"seed": 99, "arbitration": "overtaking"},
        meta={"description": "small engine sweep for smoke tests"},
    )


def _engine_sweep_cached() -> CampaignSpec:
    """The engine sweep with the routing plan cache's on-disk tier enabled.

    Identical grid to ``engine-sweep``, but every task passes
    ``plan_cache="disk"`` so workers record each routed schedule under
    ``results/plans/`` and replay it on reruns (see
    :mod:`repro.sim.plancache`).  The cache key covers topology, demands,
    router, arbitration, and engine schema, so replays are bit-identical to
    live routing; ``plan_cache`` is part of each task's content hash, so
    cached and uncached sweeps never collide in the campaign store.
    """
    return CampaignSpec.from_grid(
        "engine-sweep-cached",
        "repro.sim.task:run_routing_task",
        {
            "topology": list(ENGINE_SWEEP_TOPOLOGIES),
            "n": list(ENGINE_SWEEP_SIZES),
            "workload": list(ENGINE_SWEEP_WORKLOADS),
        },
        base={"seed": 99, "arbitration": "overtaking", "plan_cache": "disk"},
        meta={
            "description": "engine sweep with the on-disk routing plan "
            "cache (warm reruns replay recorded schedules)",
        },
    )


#: Grid axes for the communication-avoiding sweep.  Square powers of two
#: fit every topology family (and the APE FFT's square PE layout).
COMM_AVOIDING_TOPOLOGIES = ("mesh2d", "torus2d", "hypercube", "hypermesh2d")
COMM_AVOIDING_SIZES = (64, 256, 1024)


def _comm_avoiding() -> CampaignSpec:
    """4 topologies x 3 sizes x (2 convolution methods + APE FFT) = 36
    certified staged-workload cells.

    Each convolution cell runs Galli's hyper-systolic scheme (or its
    systolic baseline) on the SIMD machine with a ``sqrt(N)``-tap kernel —
    the regime where the hyper-systolic base ``B = K^(1/2)`` pays off —
    and each FFT cell runs the APE-style four-step transform.  Every
    payload verifies its values against the direct numpy evaluation and
    certifies the achieved step count against the :mod:`repro.bounds`
    superstep-sum floor: a two-sided claim per cell.
    """
    tasks = []
    for topology in COMM_AVOIDING_TOPOLOGIES:
        for n in COMM_AVOIDING_SIZES:
            for method in ("systolic", "hyper-systolic"):
                tasks.append(
                    TaskSpec(
                        entry="repro.algos.hypersystolic:run_commavoiding_task",
                        params={
                            "topology": topology,
                            "n": n,
                            "method": method,
                            "seed": 99,
                        },
                        label=f"{method}-{topology}-n{n}",
                    )
                )
            tasks.append(
                TaskSpec(
                    entry="repro.fft.ape:run_ape_fft_task",
                    params={"topology": topology, "n": n, "seed": 99},
                    label=f"ape-fft-{topology}-n{n}",
                )
            )
    return CampaignSpec(
        "comm-avoiding",
        tuple(tasks),
        meta={
            "description": "communication-avoiding workloads: systolic vs "
            "hyper-systolic convolution and the APE four-step FFT, "
            "verified and bound-certified",
        },
    )


#: Link-failure fractions for the chaos sweep: intact baseline up to the
#: regime where partitions start appearing on small meshes.
CHAOS_SWEEP_FRACTIONS = (0.0, 0.05, 0.1, 0.2)


def _chaos_sweep() -> CampaignSpec:
    """Degraded-mode grid: 3 topologies x 2 sizes x 4 link-fail fractions
    plus the hypermesh degraded-net column, 30 tasks.

    Each cell routes the fixed dense permutation through a machine with a
    seeded fraction of its links failed (``fault.seed`` fixed at 99, so the
    sampled link sets are reproducible).  ``allow_unroutable`` turns a
    partitioned cell into an ``unroutable: 1`` row rather than a failed
    task — the interesting output of this sweep *is* where routing stops
    being possible.  The hypermesh column uses degraded nets instead of
    link fractions (hypergraph networks have nets, not links): net 0
    serialized, then nets 0+1.
    """
    tasks = []
    for topology in ("mesh2d", "torus2d", "hypercube"):
        for n in (64, 256):
            for frac in CHAOS_SWEEP_FRACTIONS:
                fault = (
                    {"seed": 99, "link_fail_fraction": frac}
                    if frac else {}
                )
                tasks.append(
                    TaskSpec(
                        entry="repro.sim.task:run_routing_task",
                        params={
                            "topology": topology,
                            "n": n,
                            "workload": "dense-permutation",
                            "seed": 99,
                            "arbitration": "overtaking",
                            "allow_unroutable": True,
                            **({"fault": fault} if fault else {}),
                        },
                        label=f"{topology}-n{n}-frac{frac}",
                    )
                )
    for n in (64, 256):
        for degraded in ((), (0,), (0, 1)):
            fault = {"seed": 99, "degraded_nets": list(degraded)}
            tasks.append(
                TaskSpec(
                    entry="repro.sim.task:run_routing_task",
                    params={
                        "topology": "hypermesh2d",
                        "n": n,
                        "workload": "dense-permutation",
                        "seed": 99,
                        "arbitration": "overtaking",
                        "allow_unroutable": True,
                        **({"fault": fault} if degraded else {}),
                    },
                    label=f"hypermesh2d-n{n}-degraded{len(degraded)}",
                )
            )
    return CampaignSpec(
        "chaos-sweep",
        tuple(tasks),
        meta={
            "description": "degraded-mode sweep: routing time vs fraction "
            "of failed links (and degraded hypermesh nets), seeded faults",
        },
    )


def _paper() -> CampaignSpec:
    """Every task behind ``repro paper`` at the paper-scale grid.

    Defined by the section registry (:mod:`repro.paper.sections`), so the
    campaign and the ``repro paper`` verb can never disagree about what
    the paper's artifacts are.
    """
    from ..paper.sections import paper_campaign

    return paper_campaign("full")


def _paper_smoke() -> CampaignSpec:
    """The ``repro paper --profile smoke`` grid (CI-fast small N)."""
    from ..paper.sections import paper_campaign

    return paper_campaign("smoke")


BUILTIN_CAMPAIGNS = {
    "engine-sweep": _engine_sweep,
    "engine-sweep-small": _engine_sweep_small,
    "engine-sweep-cached": _engine_sweep_cached,
    "comm-avoiding": _comm_avoiding,
    "chaos-sweep": _chaos_sweep,
    "paper": _paper,
    "paper-smoke": _paper_smoke,
}


def list_builtin_campaigns() -> list[tuple[str, str]]:
    """(name, description) pairs for the CLI listing."""
    out = []
    for name, factory in BUILTIN_CAMPAIGNS.items():
        spec = factory()
        out.append((name, f"{spec.meta.get('description', '')} ({len(spec)} tasks)"))
    return out


def builtin_campaign(name: str) -> CampaignSpec:
    """Resolve a built-in campaign by name.

    Raises ``KeyError`` with the available names for unknown campaigns.
    """
    try:
        factory = BUILTIN_CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; built-ins: {sorted(BUILTIN_CAMPAIGNS)}"
        ) from None
    return factory()
