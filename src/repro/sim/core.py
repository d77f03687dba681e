"""The engine's step loop: one structure-of-arrays core for every mode.

:func:`route_core` advances the whole machine one data-transfer step at a
time with the packet state in flat ``int64`` arrays — positions,
destinations, next hops, retry counts — and the queue priority order
(node index, then FIFO position) held as one array of packet ids,
re-sorted per step by a stable argsort of ``concat(stayers in old order,
movers in grant order)`` on position: stayers keep their relative order
ahead of the packets that just arrived, exactly a ``deque``'s semantics.

It is bit-identical — step dicts in insertion order, :class:`RoutingStats`,
``on_fault`` event streams, error messages — to the scalar oracle
:func:`repro.sim._reference.route_oracle`, which the equivalence suites
and the differential fuzz harness enforce.

Why the arbitration vectorizes
------------------------------

The oracle sweep proposes in priority order and claims a channel **only
when a move is granted**.  Under ``"overtaking"`` every queued packet
proposes exactly once per step, so on point-to-point networks the grant
set is "the first proposal in priority order for each directed link" —
one stable argsort over link codes.  On hypergraph networks a proposal
must be first on *two* codes at once (net inject port and net deliver
port), which a single pass cannot decide: a packet that loses one code to
an earlier-denied packet may still win.  Iterating rounds — grant every
remaining proposal that is first on all its codes among the remaining,
deny (and count) the ones that conflict with a grant, repeat — reproduces
the sequential sweep exactly and terminates because the earliest
remaining proposal always wins.  ``"fifo"`` arbitration is genuinely
sequential (a denial silences the rest of that node's queue, which can
un-deny later channels), so it stays a Python loop over the
priority-ordered proposals.

Faults
------

With ``fault_model=None`` the core routes with the base router and nothing
else.  With an enabled :class:`~repro.faults.model.FaultModel`:

* hops come from a :class:`~repro.faults.routing.FaultAwareRouter`
  (minimal detours on the surviving graph; ``UnroutableError`` up front
  when a destination is partitioned away);
* a **degraded** hypermesh net carries at most one packet per step: every
  proposal on it shares one *serial* code, so first-claim-wins admits one;
* each granted move passes the model's seeded drop draw
  (:meth:`~repro.faults.model.FaultModel.transmit_ok_batch`) or stays
  queued as a retry; past ``retry_limit`` failed transmissions the packet
  is **dropped**.  A step whose every transmission failed is still
  committed, so the step count reflects the time the faults cost.

At every committed step ``packets == delivered + dropped + in-flight``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .schedule import ScheduleError
from .stats import RoutingStats

__all__ = [
    "ARBITRATION_POLICIES",
    "FaultCallback",
    "check_arbitration",
    "route_core",
]

#: Channel-arbitration disciplines accepted by the engine.
ARBITRATION_POLICIES = ("overtaking", "fifo")

#: Signature of the ``on_fault`` hook: ``(kind, step, packet, node,
#: attempts)`` where ``kind`` is ``"retry"`` or ``"drop"``, ``node`` is the
#: packet's position when the transmission failed, and ``attempts`` is its
#: cumulative failed-transmission count.
FaultCallback = Callable[[str, int, int, int, int], None]

#: ``next_hop`` returned ``None`` for a queued packet (the router considers
#: it home): the oracle skips such a packet forever.
_NO_HOP = -2


def check_arbitration(arbitration: str) -> None:
    """Raise the engine's :class:`ValueError` for an unknown policy."""
    if arbitration not in ARBITRATION_POLICIES:
        raise ValueError(
            f"unknown arbitration policy {arbitration!r}; "
            f"expected one of {ARBITRATION_POLICIES}"
        )


def _first_claim_wins(codes: np.ndarray) -> np.ndarray:
    """Grant mask over priority-ordered channel codes: first claim wins.

    ``codes[i]`` is the channel the ``i``-th proposal (in priority order)
    wants; the mask is ``True`` exactly where a proposal is the first for
    its channel.  The stable mergesort keeps equal codes in priority order,
    so "first in the sorted run" is "first proposed".
    """
    m = codes.shape[0]
    perm = np.argsort(codes, kind="mergesort")
    ranked = codes[perm]
    first = np.ones(m, dtype=np.bool_)
    first[1:] = ranked[1:] != ranked[:-1]
    mask = np.zeros(m, dtype=np.bool_)
    mask[perm] = first
    return mask


def _overtaking_grants(
    cand: np.ndarray, codes: list[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Overtaking arbitration of the proposals ``cand`` (ascending indices
    into the priority order), each claiming one channel per code array.

    Returns (granted indices ascending, blocked count).  With one code per
    proposal (a point-to-point link) every loser lost to a grant, so one
    round decides; with several (net ports, serial codes) the rounds
    described in the module docstring run to a fixed point.
    """
    parts = []
    blocked = 0
    while cand.size:
        win = _first_claim_wins(codes[0][cand])
        for code in codes[1:]:
            win &= _first_claim_wins(code[cand])
        grant = cand[win]
        parts.append(grant)
        rest = cand[~win]
        if len(codes) == 1:
            blocked += int(rest.size)
            break
        conflict = np.isin(codes[0][rest], codes[0][grant])
        for code in codes[1:]:
            conflict |= np.isin(code[rest], code[grant])
        blocked += int(np.count_nonzero(conflict))
        cand = rest[~conflict]
    if len(parts) == 1:
        return parts[0], blocked
    if not parts:
        return np.empty(0, dtype=np.int64), blocked
    return np.sort(np.concatenate(parts)), blocked


def _fifo_grants(
    n: int, pos: np.ndarray, cand: np.ndarray, codes: list[np.ndarray]
) -> tuple[np.ndarray, int]:
    """Sequential FIFO arbitration over the priority-ordered proposals.

    A denial silences the rest of that node's queue for the step (the skip
    flag), counting exactly one blocked move; the silenced tail never
    reaches a channel and counts nothing.  Packets without a hop are not in
    ``cand``, so they are transparent, as in the oracle.  Returns (granted
    indices ascending, blocked count).
    """
    skip = bytearray(n)
    claims = [(code.tolist(), set()) for code in codes]
    pos_list = pos.tolist()
    granted: list[int] = []
    blocked = 0
    for i in cand.tolist():
        node = pos_list[i]
        if skip[node]:
            continue
        for column, used in claims:
            if column[i] in used:
                skip[node] = 1
                blocked += 1
                break
        else:
            for column, used in claims:
                used.add(column[i])
            granted.append(i)
    return np.asarray(granted, dtype=np.int64), blocked


def route_core(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router,
    max_steps: int,
    fault_model: FaultModel | None = None,
    *,
    arbitration: str = "overtaking",
    on_step=None,
    on_fault: FaultCallback | None = None,
    timing: bool = False,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """Route ``sources[k] -> dests[k]`` packets; return (steps, stats).

    ``router`` is the fault-free base discipline (wrapped in a
    :class:`FaultAwareRouter` when ``fault_model`` is given) or an
    already-wrapped instance.  ``on_step(step, moves, stats)`` observes
    each committed step; ``timing`` records host seconds per step into
    ``stats.per_step_seconds``.

    Raises :class:`~repro.faults.model.UnroutableError` before the first
    step if a faulted machine cannot deliver some packet, and
    :class:`ScheduleError` past ``max_steps`` or on deadlock.
    """
    check_arbitration(arbitration)
    fifo = arbitration == "fifo"
    n = topology.num_nodes
    hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET
    if hypergraph and not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"hypergraph channel model requires a HypergraphTopology, "
            f"got {type(topology).__name__}"
        )
    net_source = topology
    degraded_nets = None
    if fault_model is not None:
        if not isinstance(router, FaultAwareRouter):
            router = FaultAwareRouter(topology, router, fault_model)
        router.check_routable(sources, dests)
        net_source = router
        if hypergraph and router.faults.degraded_nets:
            degraded_nets = np.fromiter(
                sorted(router.faults.degraded_nets), dtype=np.int64
            )
            num_nets = topology.num_nets()
    next_hop = router.next_hop
    next_hop_array = getattr(router, "next_hop_array", None)
    shared_net = net_source.shared_net if hypergraph else None
    shared_net_array = (
        getattr(net_source, "shared_net_array", None) if hypergraph else None
    )

    npk = len(sources)
    position = np.array(sources, dtype=np.int64)
    dest = np.array(dests, dtype=np.int64)
    attempts = np.zeros(npk, dtype=np.int64)

    # Initial FIFO position is packet-id order (queues fill by ascending
    # pid), so a stable sort of the in-flight pids by position *is* the
    # initial priority order.
    queued = np.flatnonzero(position != dest)
    order = queued[np.argsort(position[queued], kind="mergesort")]
    in_flight = int(order.size)
    if fault_model is not None and next_hop_array is not None:
        router.prepare_dests(dest[order])

    stats = RoutingStats()
    delivered = npk - in_flight
    stats.delivered = delivered
    if in_flight:
        stats.max_queue_depth = int(np.bincount(position[order]).max())
    steps: list[dict[int, int]] = []
    blocked = 0
    per_step_seconds = stats.per_step_seconds if timing else None

    while in_flight:
        t0 = perf_counter() if per_step_seconds is not None else 0.0
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        pos = position[order]
        dst = dest[order]
        if next_hop_array is not None:
            hops = np.asarray(next_hop_array(pos, dst), dtype=np.int64)
        else:
            hops = np.empty(in_flight, dtype=np.int64)
            dst_list = dst.tolist()
            for i, node in enumerate(pos.tolist()):
                hop = next_hop(node, dst_list[i])
                hops[i] = _NO_HOP if hop is None else hop
        proposing = hops != _NO_HOP

        # --- channel codes: one array per resource a move claims
        if hypergraph:
            if shared_net_array is not None:
                nets = np.asarray(
                    shared_net_array(pos, np.where(proposing, hops, pos)),
                    dtype=np.int64,
                )
            else:
                nets = np.full(in_flight, -1, dtype=np.int64)
                for i in np.flatnonzero(proposing).tolist():
                    net = shared_net(int(pos[i]), int(hops[i]))
                    nets[i] = -1 if net is None else net
            bad = proposing & (nets < 0)
            if bad.any():
                i = int(np.argmax(bad))
                raise ScheduleError(
                    f"router proposed non-net hop {int(pos[i])} -> "
                    f"{int(hops[i])}"
                )
            codes = [nets * np.int64(n) + pos, nets * np.int64(n) + hops]
            if degraded_nets is not None:
                # Every proposal on one degraded net shares that net's id;
                # intact-net proposals get unique codes that always win.
                codes.append(np.where(
                    np.isin(nets, degraded_nets),
                    nets,
                    num_nets + np.arange(in_flight, dtype=np.int64),
                ))
        else:
            codes = [pos * np.int64(n) + hops]

        # --- arbitration: indices into `order`, ascending == grant order
        cand = np.flatnonzero(proposing)
        if fifo:
            granted_idx, denied = _fifo_grants(n, pos, cand, codes)
        else:
            granted_idx, denied = _overtaking_grants(cand, codes)
        blocked += denied
        if granted_idx.size == 0:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        grant_pids = order[granted_idx]
        grant_hops = hops[granted_idx]
        gone = np.zeros(in_flight, dtype=bool)
        if fault_model is not None:
            ok = fault_model.transmit_ok_batch(stats.steps, grant_pids)
            _settle_failures(
                fault_model, stats, np.flatnonzero(~ok), granted_idx,
                grant_pids, pos, attempts, gone, on_fault,
            )
            granted_idx = granted_idx[ok]
            grant_pids = grant_pids[ok]
            grant_hops = grant_hops[ok]

        # --- commit successful moves, in grant order
        position[grant_pids] = grant_hops
        arrived = grant_hops == dest[grant_pids]
        gone[granted_idx] = True
        survivors = np.concatenate((order[~gone], grant_pids[~arrived]))
        order = survivors[np.argsort(position[survivors], kind="mergesort")]
        in_flight = int(order.size)
        delivered += int(np.count_nonzero(arrived))

        moves = dict(zip(grant_pids.tolist(), grant_hops.tolist()))
        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        stats.blocked_moves = blocked
        stats.delivered = delivered
        if in_flight:
            depth = int(np.bincount(position[order]).max())
            if depth > stats.max_queue_depth:
                stats.max_queue_depth = depth
        if per_step_seconds is not None:
            per_step_seconds.append(perf_counter() - t0)
        if on_step is not None:
            on_step(stats.steps - 1, moves, stats)

    return steps, stats


def _settle_failures(
    fault_model: FaultModel,
    stats: RoutingStats,
    fail: np.ndarray,
    granted_idx: np.ndarray,
    grant_pids: np.ndarray,
    pos: np.ndarray,
    attempts: np.ndarray,
    gone: np.ndarray,
    on_fault: FaultCallback | None,
) -> None:
    """Count the retries of the failed grants ``fail`` (indices into the
    grant list) and mark in ``gone`` the packets past their retry budget.

    ``on_fault`` sees, per failed grant in grant order, its retry and any
    immediate drop — the oracle's event order.
    """
    if not fail.size:
        return
    retry_limit = fault_model.retry_limit
    fail_pids = grant_pids[fail]
    attempts[fail_pids] += 1
    stats.retried += int(fail.size)
    if on_fault is not None:
        dropped = []
        att_list = attempts[fail_pids].tolist()
        node_list = pos[granted_idx[fail]].tolist()
        for j, pid in enumerate(fail_pids.tolist()):
            on_fault("retry", stats.steps, pid, node_list[j], att_list[j])
            if retry_limit is not None and att_list[j] > retry_limit:
                stats.dropped += 1
                on_fault("drop", stats.steps, pid, node_list[j], att_list[j])
                dropped.append(fail[j])
        if dropped:
            gone[granted_idx[np.asarray(dropped)]] = True
    elif retry_limit is not None:
        over = attempts[fail_pids] > retry_limit
        ndrop = int(np.count_nonzero(over))
        if ndrop:
            stats.dropped += ndrop
            gone[granted_idx[fail[over]]] = True
