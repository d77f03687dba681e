"""The scalar oracle: the frozen seed loop plus its generalisation.

:func:`reference_route_core` is the original O(N)-scan-per-step engine loop
exactly as it shipped in the seed tree.  :func:`route_oracle` generalises it
to every mode the production engine supports — fault-free and faulted,
``"overtaking"`` and ``"fifo"`` arbitration — with the same plain
node-order-then-FIFO sweep over Python ``deque`` queues.  The production
structure-of-arrays core (:func:`repro.sim.core.route_core`) must produce
**bit-identical** schedules, statistics, ``on_fault`` event streams and
error messages to the oracle, and the oracle must match the seed loop
wherever the seed loop is defined (fault-free, overtaking).

Only tests and benchmarks import this module — nothing in the library's
runtime paths does.

Do not "fix" or optimize :func:`reference_route_core`: its value is that it
does not change.  (The one deliberate deviation from the seed text: the
bare ``assert isinstance`` guard in ``_shared_net_id`` is an explicit
``TypeError`` here, so the reference keeps working under ``python -O``.
Routing behaviour is untouched.)
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..faults.model import FaultModel
from ..faults.routing import FaultAwareRouter
from ..networks.base import ChannelModel, HypergraphTopology, Topology
from .core import FaultCallback, check_arbitration
from .routers import Router
from .schedule import ScheduleError
from .stats import RoutingStats

__all__ = ["reference_route_core", "route_oracle"]


def reference_route_core(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router: Router,
    max_steps: int,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """The seed engine's shared arbitration loop, verbatim."""
    n = topology.num_nodes
    hypergraph = topology.channel_model is ChannelModel.HYPERGRAPH_NET

    position = list(sources)
    queues: list[deque[int]] = [deque() for _ in range(n)]
    in_flight = 0
    for pid, (src, dst) in enumerate(zip(sources, dests)):
        if src != dst:
            queues[src].append(pid)
            in_flight += 1

    stats = RoutingStats()
    stats.delivered = len(sources) - in_flight
    stats.max_queue_depth = max((len(q) for q in queues), default=0)
    steps: list[dict[int, int]] = []

    while in_flight:
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        moves: dict[int, int] = {}
        used_links: set[tuple[int, int]] = set()
        used_inject: set[tuple[int, int]] = set()
        used_deliver: set[tuple[int, int]] = set()

        # Propose in deterministic order: node index, then FIFO position.
        for node in range(n):
            for pid in queues[node]:
                nxt = router.next_hop(node, dests[pid])
                if nxt is None:
                    continue  # already home (shouldn't be queued, but safe)
                if hypergraph:
                    net = _shared_net_id(topology, node, nxt)
                    if net is None:
                        raise ScheduleError(
                            f"router proposed non-net hop {node} -> {nxt}"
                        )
                    if (net, node) in used_inject or (net, nxt) in used_deliver:
                        stats.blocked_moves += 1
                        continue
                    used_inject.add((net, node))
                    used_deliver.add((net, nxt))
                else:
                    link = (node, nxt)
                    if link in used_links:
                        stats.blocked_moves += 1
                        continue
                    used_links.add(link)
                moves[pid] = nxt

        if not moves:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        # Apply the granted moves.
        for pid, nxt in moves.items():
            queues[position[pid]].remove(pid)
            position[pid] = nxt
            if nxt == dests[pid]:
                stats.delivered += 1
                in_flight -= 1
            else:
                queues[nxt].append(pid)
        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        depth = max((len(q) for q in queues), default=0)
        stats.max_queue_depth = max(stats.max_queue_depth, depth)

    return steps, stats


def _shared_net_id(topology: Topology, a: int, b: int) -> int | None:
    if not isinstance(topology, HypergraphTopology):
        raise TypeError(
            f"net lookup needs a HypergraphTopology, got {type(topology).__name__}"
        )
    nets_a = set(topology.nets_of(a))
    for net in topology.nets_of(b):
        if net in nets_a:
            return net
    return None


def route_oracle(
    topology: Topology,
    sources: Sequence[int],
    dests: Sequence[int],
    router,
    max_steps: int,
    fault_model: FaultModel | None = None,
    *,
    arbitration: str = "overtaking",
    on_fault: FaultCallback | None = None,
) -> tuple[list[dict[int, int]], RoutingStats]:
    """The scalar oracle for :func:`repro.sim.core.route_core`.

    The seed sweep — propose in node order then FIFO position, claim a
    channel only on a grant — with the two extensions the engine supports:

    * ``arbitration="fifo"``: the first denied packet in a queue blocks the
      rest of that queue for the step (one blocked move counted);
    * an enabled ``fault_model``: hops come from a
      :class:`~repro.faults.routing.FaultAwareRouter` (``router`` is the
      base discipline or an already-wrapped instance), degraded hypermesh
      nets carry one packet per step, and each granted move passes the
      model's seeded drop draw or stays queued as a retry — dropped for
      good past ``retry_limit``.  ``on_fault(kind, step, packet, node,
      attempts)`` observes every retry and drop.

    With ``fault_model=None`` the base router is used as is: no wrapper,
    no drop draw, no serial codes.
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
    if fault_model is None:
        shared_net = topology.shared_net if hypergraph else None
        net_degraded = None
    else:
        if not isinstance(router, FaultAwareRouter):
            router = FaultAwareRouter(topology, router, fault_model)
        router.check_routable(sources, dests)
        shared_net = router.shared_net
        net_degraded = router.faults.net_degraded

    npk = len(sources)
    position = list(sources)
    dests = list(dests)
    queues: list[deque[int]] = [deque() for _ in range(n)]
    in_flight = 0
    for pid in range(npk):
        if position[pid] != dests[pid]:
            queues[position[pid]].append(pid)
            in_flight += 1
    attempts = [0] * npk

    stats = RoutingStats()
    stats.delivered = npk - in_flight
    stats.max_queue_depth = max((len(q) for q in queues), default=0)
    steps: list[dict[int, int]] = []

    while in_flight:
        if stats.steps >= max_steps:
            raise ScheduleError(
                f"{in_flight} packets undelivered after {max_steps} steps"
            )
        # An explicit list in grant (= priority) order: transmissions are
        # settled in arbitration order.
        granted: list[tuple[int, int]] = []
        used_links: set[tuple[int, int]] = set()
        used_inject: set[tuple[int, int]] = set()
        used_deliver: set[tuple[int, int]] = set()
        used_serial: set[int] = set()

        for node in range(n):
            for pid in queues[node]:
                nxt = router.next_hop(node, dests[pid])
                if nxt is None:
                    continue
                if hypergraph:
                    net = shared_net(node, nxt)
                    if net is None:
                        raise ScheduleError(
                            f"router proposed non-net hop {node} -> {nxt}"
                        )
                    serial = net_degraded is not None and net_degraded(net)
                    if (
                        (serial and net in used_serial)
                        or (net, node) in used_inject
                        or (net, nxt) in used_deliver
                    ):
                        stats.blocked_moves += 1
                        if fifo:
                            break  # head of line holds the queue
                        continue
                    used_inject.add((net, node))
                    used_deliver.add((net, nxt))
                    if serial:
                        used_serial.add(net)
                else:
                    link = (node, nxt)
                    if link in used_links:
                        stats.blocked_moves += 1
                        if fifo:
                            break
                        continue
                    used_links.add(link)
                granted.append((pid, nxt))

        if not granted:
            raise ScheduleError(
                f"deadlock: {in_flight} packets queued but none can move"
            )

        moves: dict[int, int] = {}
        for pid, nxt in granted:
            if fault_model is not None and not fault_model.transmit_ok(
                stats.steps, pid
            ):
                attempts[pid] += 1
                stats.retried += 1
                node = position[pid]
                if on_fault is not None:
                    on_fault("retry", stats.steps, pid, node, attempts[pid])
                retry_limit = fault_model.retry_limit
                if retry_limit is not None and attempts[pid] > retry_limit:
                    queues[node].remove(pid)
                    in_flight -= 1
                    stats.dropped += 1
                    if on_fault is not None:
                        on_fault("drop", stats.steps, pid, node, attempts[pid])
                continue
            moves[pid] = nxt
            queues[position[pid]].remove(pid)
            position[pid] = nxt
            if nxt == dests[pid]:
                stats.delivered += 1
                in_flight -= 1
            else:
                queues[nxt].append(pid)

        # A step whose every transmission failed still costs machine time.
        steps.append(moves)
        stats.steps += 1
        stats.total_hops += len(moves)
        stats.per_step_moves.append(len(moves))
        depth = max((len(q) for q in queues), default=0)
        stats.max_queue_depth = max(stats.max_queue_depth, depth)

    return steps, stats
