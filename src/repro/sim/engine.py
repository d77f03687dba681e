"""The synchronous word-level network simulator.

One *data-transfer step* advances the whole machine at once, exactly as the
paper's SIMD word-level model prescribes:

* every directed link of a point-to-point network forwards at most one
  packet;
* every hypermesh net realizes at most one partial permutation (each member
  node injects at most one packet into the net and accepts at most one from
  it);
* packets that lose arbitration wait in unbounded FIFO buffers at their
  current node.

:func:`route_permutation` drives one packet per node adaptively with a
per-topology :class:`~repro.sim.routers.Router` and **records** every move,
returning a :class:`~repro.sim.schedule.CommSchedule` plus congestion
statistics.  :func:`route_demands` generalizes to arbitrary multisets of
``(source, destination)`` packets — h-relations — under the very same
channel constraints, which is how the blocked FFT's m-relation bit reversal
can be *executed* rather than only planned.

Arbitration policies
--------------------

Buffers are FIFO, but *channel arbitration* admits two disciplines, chosen
with the ``arbitration`` keyword:

``"overtaking"`` (default)
    Every queued packet proposes its next hop each step, in node order then
    FIFO position.  A packet behind a blocked head-of-line packet may
    therefore leave first if its channel is free.  This is the seed engine's
    behaviour and the baseline all published step counts use;
    ``blocked_moves`` counts every denied proposal, including overtakers'.

``"fifo"``
    Head-of-line-respecting: the first denied packet in a queue blocks the
    rest of that queue for the step, so departures respect arrival order
    exactly.  ``blocked_moves`` counts only the head denial (the packets
    behind it never reach a channel), and ``max_queue_depth`` measures
    buffering under strict FIFO service.

The step loop and its oracle
----------------------------

Both entry points run one step loop, :func:`repro.sim.core.route_core`: a
structure-of-arrays core that holds packet positions, next hops and the
queue priority order in flat NumPy arrays and arbitrates a whole step per
call.  Its contract is **bit-identity** — same step dicts in the same
insertion order, same :class:`~repro.sim.stats.RoutingStats`, same error
messages — with the scalar oracle in :mod:`repro.sim._reference`, a plain
per-packet sweep that matches the seed loop wherever the seed loop is
defined.  The equivalence suites and the differential fuzz harness enforce
it; nothing at runtime imports the oracle.

Instrumentation: pass ``on_step`` to observe each committed step, and pass
``timing=True`` to record host-side per-step wall-clock into
``RoutingStats.per_step_seconds`` (:mod:`repro.sim.tracing` renders both).
Timing is opt-in because the two clock reads per step are measurable
overhead at small N; untimed runs leave ``per_step_seconds`` empty, which
the renderers and equality comparisons already tolerate.

Plan caching
------------

Routing is a pure function of ``(topology, demands, router, arbitration)``,
so both entry points accept a ``cache=`` argument (see
:mod:`repro.sim.plancache`): ``"memory"``/``"disk"``/a path/a
:class:`~repro.sim.plancache.PlanCache` consult the cache before
arbitrating and record the schedule after a miss; a hit replays the stored
steps and counters **bit-identically** (the equivalence suite enforces
this).  ``cache=False`` forces live routing even when a process-wide
default is installed via
:func:`~repro.sim.plancache.set_process_default`; runs with ``on_step`` or
``timing`` instrumentation always route live (counted as ``bypassed``).

Fault injection
---------------

Both entry points accept ``fault_model=`` (a
:class:`~repro.faults.model.FaultModel`).  A model with nothing enabled is
contractually a **no-op**: the run is exactly a run with no model.  An
enabled model runs the same core in its faulted mode — minimal detours
around dead links/nodes/nets, serialized sub-transfers on degraded
hypermesh nets, and retry/drop semantics with ``dropped`` / ``retried``
accounting on :class:`RoutingStats` (observable per event via
``on_fault``).  The fault configuration is folded into the plan-cache key,
so a faulted run can never replay a fault-free plan or vice versa; runs
carrying an ``on_fault`` hook route live (counted as ``fault_bypassed``).
See docs/FAULTS.md for the full semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..faults.model import FaultModel
from ..networks.base import HypergraphTopology, Topology
from ..routing.permutation import Permutation
from . import plancache as _plancache
from .core import ARBITRATION_POLICIES, FaultCallback, check_arbitration, route_core
from .routers import Router, router_for
from .schedule import CommSchedule
from .stats import RoutingStats

__all__ = [
    "ARBITRATION_POLICIES",
    "StepCallback",
    "RoutedPermutation",
    "RoutedDemands",
    "route_permutation",
    "route_demands",
    "replay_schedule",
]

#: Signature of the ``on_step`` instrumentation hook: called after each
#: committed step with ``(step_index, moves, stats)``.  ``moves`` is the
#: engine's live step record — treat it as read-only.
StepCallback = Callable[[int, Mapping[int, int], RoutingStats], None]


def _degraded_max_steps(
    base: int, fault_model: FaultModel, packets: int
) -> int:
    """Inflate the fault-free ``max_steps`` default for a degraded run.

    The bound is derived from what a degraded run can legitimately spend:

    * ``4 * base`` covers minimal detours on the surviving graph (longer
      than the intact diameter) plus the congestion they induce;
    * with a **finite retry budget**, lossy transmission consumes at most
      ``retry_limit + 1`` attempts per packet before the packet drops, and
      every step in which *all* granted transmissions fail still burns at
      least one attempt from some packet's budget — so
      ``packets * (retry_limit + 1)`` extra steps suffice for any drop
      probability, however close to 1;
    * with an **unbounded** retry budget, expected transmissions stretch by
      ``1/(1 - p)``; the divisor is clamped so ``drop_prob=1`` still
      terminates in a :class:`ScheduleError` rather than spinning forever.

    The old fixed ``scale = 4.0 / max(1-p, 0.02)`` under-inflated exactly
    in the finite-budget case: a packet with ``p`` close to 1 and a large
    ``retry_limit`` is *legal but slow* (expected ``1/(1-p)`` steps per
    hop, far beyond the clamped 50x) and used to hit the ceiling mid-run.
    """
    bound = 4 * base  # headroom for minimal detours, rerouted congestion
    if fault_model.drop_prob > 0.0:
        if fault_model.retry_limit is not None:
            bound += packets * (int(fault_model.retry_limit) + 1)
        else:
            bound = int(bound / max(1.0 - fault_model.drop_prob, 0.02))
    return bound + 16


@dataclass(frozen=True)
class RoutedPermutation:
    """Result of adaptively routing a permutation."""

    schedule: CommSchedule
    stats: RoutingStats


@dataclass(frozen=True)
class RoutedDemands:
    """Result of adaptively routing an arbitrary packet multiset.

    ``steps[s][packet_index] = node moved to during step s`` — the same
    time-expanded encoding as :class:`CommSchedule`, but packets are
    identified by their index into ``demands`` and may start anywhere.
    """

    demands: tuple[tuple[int, int], ...]
    steps: tuple[dict[int, int], ...]
    stats: RoutingStats


def _resolve_plan_cache(
    cache,
    on_step: StepCallback | None,
    timing: bool,
    fault_hook: bool = False,
) -> "_plancache.PlanCache | None":
    """Normalize a ``cache=`` argument, honouring the process default.

    ``cache=None`` (the keyword's default) consults the process-wide
    default installed by :func:`repro.sim.plancache.set_process_default`;
    ``cache=False`` always routes live.  Instrumented runs (``on_step`` or
    ``timing``) bypass the cache — a replay has no live stats to stream and
    spent no per-step host time — and are counted as ``bypassed``.
    ``fault_hook`` marks a run with an active fault model carrying an
    ``on_fault`` hook: it bypasses for the same reason (a replay fires no
    fault events) but is counted separately as ``fault_bypassed`` so
    ``repro plans stats`` shows how much traffic fault instrumentation
    keeps out of the cache.
    """
    if cache is None:
        resolved = _plancache.process_default()
    else:
        resolved = _plancache.resolve_cache(cache)
    if resolved is None:
        return None
    if fault_hook:
        resolved.fault_bypassed += 1
        return None
    if on_step is not None or timing:
        resolved.bypassed += 1
        return None
    return resolved


def _route_or_replay(
    topology: Topology,
    sources: list[int],
    dests: list[int],
    router: Router,
    max_steps: int,
    *,
    arbitration: str,
    on_step: StepCallback | None,
    timing: bool,
    cache,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Cache-aware front of the step loop: replay a recorded plan on a
    hit, route live (and record) on a miss.

    An *enabled* fault model folds its fingerprint into the plan key: the
    faulted and fault-free variants of one problem are distinct cache
    entries by construction.  A disabled model is treated exactly as no
    model at all.  An unknown arbitration policy fails before the cache is
    consulted, so a hit cannot mask it.
    """
    if fault_model is not None and not fault_model.enabled:
        fault_model = None  # attached-but-empty: contractual no-op
    check_arbitration(arbitration)
    cache_obj = _resolve_plan_cache(
        cache, on_step, timing,
        fault_hook=fault_model is not None and on_fault is not None,
    )
    key = None
    if cache_obj is not None:
        key = _plancache.plan_key(
            topology, sources, dests, router, arbitration, fault_model
        )
        if key is None:
            cache_obj.uncacheable += 1  # unregistered router: route live
        else:
            plan = cache_obj.get(key)
            if plan is not None:
                return plan.replay_steps(), plan.replay_stats()
    steps, stats = route_core(
        topology,
        sources,
        dests,
        router,
        max_steps,
        fault_model,
        arbitration=arbitration,
        on_step=on_step,
        on_fault=on_fault,
        timing=timing,
    )
    if key is not None:
        cache_obj.put(key, _plancache.CachedPlan.from_run(steps, stats))
    return steps, stats


def route_permutation(
    topology: Topology,
    perm: Permutation,
    router: Router | None = None,
    *,
    max_steps: int | None = None,
    arbitration: str = "overtaking",
    on_step: StepCallback | None = None,
    timing: bool = False,
    cache=None,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> RoutedPermutation:
    """Route one packet per node to ``perm[node]`` and record the schedule.

    Parameters
    ----------
    topology:
        Network to route on.
    perm:
        Destination of the packet starting at each node.
    router:
        Routing discipline; defaults to the topology's canonical router.
        Must be deterministic — a pure function of ``(current, dest)`` —
        because recorded plans are replayed from the plan cache.
    max_steps:
        Safety bound; defaults to ``10 * diameter + 10 * N`` which no
        deterministic minimal-path discipline on these topologies exceeds.
    arbitration:
        Channel-arbitration policy, ``"overtaking"`` (seed-identical
        default) or ``"fifo"`` — see the module docstring.
    on_step:
        Optional :data:`StepCallback` invoked after every committed step.
    timing:
        Record host wall-clock per step into ``stats.per_step_seconds``
        (opt-in; untimed runs leave it empty and skip the clock reads).
    cache:
        Plan cache mode — ``False`` (route live even past a process
        default), ``"memory"``, ``"disk"``, a directory path, or a
        :class:`~repro.sim.plancache.PlanCache`.  ``None`` (default) uses
        the process default if one is installed.  A hit replays the
        recorded schedule and stats bit-identically; ``on_step``/``timing``
        runs bypass the cache.
    fault_model:
        Optional :class:`~repro.faults.model.FaultModel`.  Disabled models
        are bit-identical no-ops; enabled models reroute around dead
        links/nodes/nets, serialize degraded hypermesh nets, and apply
        retry/drop semantics (see the module docstring and docs/FAULTS.md).
        Note that a faulted permutation whose packets get *dropped* no
        longer realizes ``perm`` — ``schedule.validate()`` will then raise,
        by design.
    on_fault:
        Optional :data:`~repro.sim.core.FaultCallback` observing every
        retry and drop (only ever fired by an enabled fault model).

    Raises
    ------
    ScheduleError
        If packets are undeliverable within ``max_steps`` (e.g. a router
        proposing non-neighbours, which validation would also catch).
    UnroutableError
        If an enabled fault model leaves a packet's destination dead or
        partitioned away from its source.
    """
    n = topology.num_nodes
    if perm.n != n:
        raise ValueError(f"permutation on {perm.n} points, topology has {n} nodes")
    router = router or router_for(topology)
    if max_steps is None:
        max_steps = 10 * topology.diameter + 10 * n
        if fault_model is not None and fault_model.enabled:
            max_steps = _degraded_max_steps(max_steps, fault_model, n)

    steps, stats = _route_or_replay(
        topology,
        list(range(n)),
        perm.destinations.tolist(),
        router,
        max_steps,
        arbitration=arbitration,
        on_step=on_step,
        timing=timing,
        cache=cache,
        fault_model=fault_model,
        on_fault=on_fault,
    )
    schedule = CommSchedule(
        topology=topology, logical=perm, steps=tuple(steps)
    )
    return RoutedPermutation(schedule=schedule, stats=stats)


def _validate_demand_nodes(
    topology: Topology, demands: Sequence[tuple[int, int]]
) -> None:
    """Bounds-check every demand endpoint in one vectorized pass.

    Replaces the per-endpoint ``validate_node`` loop (two Python calls per
    packet) with a single NumPy comparison; on failure the first offending
    endpoint *in original order* (source before destination, pair by pair)
    is handed back to :meth:`~repro.networks.base.Topology.validate_node`
    so the error type and message stay exactly the seed's.  Inputs that do
    not pack into an integer array (exotic endpoint types) fall back to the
    original loop unchanged.
    """
    if not demands:
        return
    try:
        arr = np.asarray(demands)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        for src, dst in demands:
            for node in (src, dst):
                # validate_node's range check would accept an in-range
                # float (0 <= 0.5 < n), which then explodes as a list
                # index deep in the arbitration loop — reject it here
                # with a message that names the actual problem.
                if not isinstance(node, (int, np.integer)):
                    raise ValueError(
                        f"demand endpoint {node!r} is not an integer node id"
                    )
            topology.validate_node(src)
            topology.validate_node(dst)
        return
    flat = arr.reshape(-1)  # row-major: src0, dst0, src1, dst1, ...
    bad = (flat < 0) | (flat >= topology.num_nodes)
    if bad.any():
        topology.validate_node(int(flat[int(np.argmax(bad))]))


def route_demands(
    topology: Topology,
    demands: Sequence[tuple[int, int]],
    router: Router | None = None,
    *,
    max_steps: int | None = None,
    arbitration: str = "overtaking",
    on_step: StepCallback | None = None,
    timing: bool = False,
    cache=None,
    fault_model: FaultModel | None = None,
    on_fault: FaultCallback | None = None,
) -> RoutedDemands:
    """Route an arbitrary packet multiset (an h-relation) adaptively.

    Each ``demands[k] = (source, destination)`` packet starts at its source;
    several packets may share a source or a destination — the channel
    constraints (one packet per directed link per step; one injection and
    one delivery per net port per step) still apply, so congestion shows up
    as steps, exactly as the word model prescribes.

    The ``max_steps`` default scales with the relation's degree ``h``.
    ``arbitration``, ``on_step``, ``timing``, ``cache``,
    ``fault_model`` and ``on_fault`` behave as in
    :func:`route_permutation`.
    """
    n = topology.num_nodes
    demands = list(demands)
    _validate_demand_nodes(topology, demands)
    router = router or router_for(topology)
    if max_steps is None:
        out = [0] * n
        inc = [0] * n
        for src, dst in demands:
            if src != dst:
                out[src] += 1
                inc[dst] += 1
        h = max(max(out, default=0), max(inc, default=0), 1)
        max_steps = h * (10 * topology.diameter + 10 * n)
        if fault_model is not None and fault_model.enabled:
            max_steps = _degraded_max_steps(
                max_steps, fault_model, len(demands)
            )

    sources = [src for src, _ in demands]
    dests = [dst for _, dst in demands]
    steps, stats = _route_or_replay(
        topology,
        sources,
        dests,
        router,
        max_steps,
        arbitration=arbitration,
        on_step=on_step,
        timing=timing,
        cache=cache,
        fault_model=fault_model,
        on_fault=on_fault,
    )
    return RoutedDemands(
        demands=tuple((int(s), int(d)) for s, d in demands),
        steps=tuple(steps),
        stats=stats,
    )


def replay_schedule(schedule: CommSchedule) -> int:
    """Validate a schedule against the hardware model and return its step
    count.  Thin convenience wrapper so benchmark code reads naturally."""
    schedule.validate()
    return schedule.num_steps


def _shared_net_id(topology: Topology, a: int, b: int) -> int | None:
    """Net shared by two nodes (kept for callers of the seed-era helper).

    The engine now uses the topology's own cached/closed-form
    :meth:`~repro.networks.base.HypergraphTopology.shared_net`; this wrapper
    survives so external code keyed to the old name keeps working, and it
    raises :class:`TypeError` (not a strippable ``assert``) on non-hypergraph
    topologies.
    """
    if not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"net lookup needs a HypergraphTopology, got {type(topology).__name__}"
        )
    return topology.shared_net(a, b)
