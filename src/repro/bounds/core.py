"""Analytic lower bounds on data-transfer steps, and their certification.

Every benchmark row and paper table in this repo reports the number of
steps a schedule *achieved*.  This module supplies the other side of the
claim: a per-(topology, demand set) floor no schedule admissible under the
word-level hardware model (:meth:`repro.sim.schedule.CommSchedule.validate`)
can beat, so ``achieved >= bound`` is checkable — and checked — everywhere
a step count is produced.

Four bound families are computed; the certified bound is their maximum.
Each is sound against the channel-capacity semantics the validator
enforces (one packet per directed link per step on point-to-point
networks; one injection and one delivery per (node, net) pair per step on
hypergraph networks):

``bisection``
    The index-halving cut (nodes ``< N/2`` vs ``>= N/2``, the paper's
    Section V bisector) can pass at most ``C`` packets per step in each
    direction, where ``C`` is :func:`~repro.networks.properties.\
halving_cut_links` crossing links (point-to-point) or
    :func:`~repro.networks.properties.net_crossing_ports` crossing ports
    (hypergraph).  ``ceil(crossing_demand / C)`` steps are forced.

``distance``
    A packet moves one channel per step, so no schedule beats the largest
    source→destination hop distance (BSP latency floor: the diameter
    specializes this when demands stretch across the machine).

``ports``
    A node with ``h`` packets to send (or receive) and ``c`` incident
    channels needs ``ceil(h / c)`` steps — the per-superstep ``h``-relation
    bound of the BSP lower-bound literature (arXiv:1707.02229), with ``c``
    the degree on point-to-point networks and the incident-net count on
    hypergraphs.

``work``
    Summed over packets, at least ``total_distance`` channel traversals
    must happen, and the whole machine performs at most ``cap`` traversals
    per step (``2 * links`` directed link slots, or the summed net sizes —
    a rotation realizes ``|net|`` moves per net-step).

Fault awareness: given a :class:`~repro.faults.FaultModel`, distances are
recomputed on the surviving graph when a link, node or net is removed, and
every capacity shrinks to its surviving value (down links/nets excluded,
degraded nets serialized to one packet per step), so bounds under faults
only ever tighten.  Runs that drop ``k`` packets are certified against an
adversarially weakened demand set — the ``k`` most expensive packets are
discounted (order statistics on distances, crossing counts, and per-node
loads) — so a lossy run can never be failed by work it provably did not
do.

Computation: :func:`step_lower_bound` is one NumPy pass over the demand
array — closed-form :meth:`~repro.networks.base.Topology.distance_array`
distances (surviving-graph tables only under removals), ``bincount``
loads, a sorted top-``k`` discount — against a per-machine channel
summary (cut capacity, channels per node, machine-wide slots) built once
from the cached link or net array and cached on the topology, or on the
:class:`~repro.faults.model.ResolvedFaults` under faults.  The loop
version is the test oracle in ``tests/bounds/scalar_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BOUND_KINDS",
    "BoundKind",
    "BoundViolation",
    "Certificate",
    "certify",
    "certify_program",
    "certify_schedule",
    "certify_stages",
    "program_stage_demands",
    "step_lower_bound",
]


@dataclass(frozen=True)
class BoundKind:
    """One analytic bound family (a row of docs/BOUNDS.md's table)."""

    name: str
    summary: str


#: Registry of the bound families :func:`step_lower_bound` combines.  The
#: docs drift-checker renders docs/BOUNDS.md's kinds table from this, so
#: adding a family without documenting it fails ``tools/check_docs.py``.
BOUND_KINDS: tuple[BoundKind, ...] = (
    BoundKind(
        "bisection",
        "crossing demand over the index-halving cut / per-step cut capacity "
        "(halving_cut_links or net_crossing_ports)",
    ),
    BoundKind(
        "distance",
        "largest surviving-graph hop distance any packet must cover "
        "(one channel per step)",
    ),
    BoundKind(
        "ports",
        "max over nodes of ceil(packets to send or receive / incident "
        "channels) — the BSP h-relation floor",
    ),
    BoundKind(
        "work",
        "total hop distance over all packets / machine-wide channel "
        "slots per step",
    ),
)


class BoundViolation(Exception):
    """A measured step count undercut its analytic floor.

    This is a *hard error*: either the schedule broke the hardware model
    (validator bug) or a bound is unsound (certifier bug) — never a data
    point.  The offending :class:`Certificate` rides along as
    ``.certificate``.
    """

    def __init__(self, certificate: "Certificate"):
        self.certificate = certificate
        label = f" [{certificate.label}]" if certificate.label else ""
        super().__init__(
            f"achieved {certificate.achieved} steps undercuts the "
            f"{certificate.binding} lower bound {certificate.bound}{label}: "
            f"witness {dict(certificate.witness)}"
        )


@dataclass(frozen=True)
class Certificate:
    """A two-sided step-count claim: achieved ``X``, provably ``>= Y``.

    ``witness`` records every per-family bound plus the quantities they
    were computed from, so a violation (or a suspiciously loose ratio) can
    be audited without re-deriving anything.
    """

    achieved: int
    bound: int
    witness: Mapping[str, Any] = field(default_factory=dict)
    label: str | None = None

    @property
    def binding(self) -> str:
        """Which bound family produced the certified floor."""
        return str(self.witness.get("binding", "trivial"))

    @property
    def ratio(self) -> float | None:
        """``achieved / bound`` — how loose the schedule is (None if the
        floor is 0, i.e. nothing had to move)."""
        if self.bound == 0:
            return None
        return self.achieved / self.bound

    @property
    def holds(self) -> bool:
        return self.achieved >= self.bound

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable image (what benchmark rows embed)."""
        return {
            "achieved": self.achieved,
            "bound": self.bound,
            "ratio": self.ratio,
            "binding": self.binding,
            "certified": self.holds,
            "witness": dict(self.witness),
        }


def _resolved(topology, fault_model):
    if fault_model is None:
        return None
    from ..faults.model import ResolvedFaults, resolve_faults

    if isinstance(fault_model, ResolvedFaults):
        return fault_model
    return resolve_faults(fault_model, topology)


def _moving(topology, demands: Iterable[tuple[int, int]]) -> np.ndarray:
    """The demands as a ``(P, 2)`` int64 array, self-demands dropped.

    A node outside the machine raises :meth:`~repro.networks.base.\
Topology.validate_node`'s ``ValueError`` for the first one in pair order
    (source before destination) — on the faulted path too, where a
    negative id would otherwise index the distance table from the end.
    """
    if not isinstance(demands, np.ndarray):
        demands = list(demands)
    pairs = np.asarray(demands, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("demands must be (source, destination) pairs")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    flat = pairs.ravel()
    bad = (flat < 0) | (flat >= topology.num_nodes)
    if bad.any():
        topology.validate_node(int(flat[np.argmax(bad)]))
    return pairs


def _distances(topology, sources, dests, resolved) -> np.ndarray:
    """Per-packet hop distances, on the surviving graph when faults remove
    a link, node or net (a degraded net still connects its members, so
    degraded-only faults keep the closed form).  Raises
    :class:`~repro.faults.UnroutableError` when a demand's endpoints are
    disconnected (its bound would be infinite)."""
    from ..faults.model import UnroutableError

    if resolved is None or not resolved.removes:
        return topology.distance_array(sources, dests)
    table, dest_row = resolved.surviving_graph(topology).dest_table(dests)
    dists = table[dest_row[dests], sources]
    unreachable = np.flatnonzero(dists < 0)
    if unreachable.size:
        # Name the culprit a per-destination scan finds first: destinations
        # in order of first appearance, then that destination's sources in
        # packet order.
        _, first, group = np.unique(
            dests, return_index=True, return_inverse=True
        )
        culprit = unreachable[np.argmin(first[group[unreachable]])]
        raise UnroutableError(
            f"no surviving path from {sources[culprit]} to "
            f"{dests[culprit]}: the step lower bound is infinite"
        )
    return dists


@dataclass(frozen=True)
class _Channels:
    """Per-step channel capacities of one machine (intact or faulted)."""

    #: Packets the index-halving cut passes per step, per direction.
    cut: int
    #: Incident channels per node (send = receive capacity per step).
    per_node: np.ndarray
    #: Machine-wide channel traversals possible in one step.
    total: int


def _channels(topology, resolved) -> _Channels:
    """The channel summary, computed once per topology instance (intact)
    or per (fault set, topology) pair, and cached there."""
    if resolved is None or not resolved.structural:
        summary = getattr(topology, "_bound_channels", None)
        if summary is None:
            summary = _channel_summary(topology, None)
            topology._bound_channels = summary
        return summary
    return resolved.cached(
        topology, "bound_channels",
        lambda: _channel_summary(topology, resolved),
    )


def _id_mask(ids, size: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[np.fromiter(ids, dtype=np.int64, count=len(ids))] = True
    return mask


def _channel_summary(topology, resolved) -> _Channels:
    """Surviving capacities: down links, nodes and nets carry nothing, and
    a degraded net moves one packet per step however many members it has."""
    from ..networks.base import ChannelModel
    from ..networks.properties import (
        halving_cut_link_mask,
        net_crossing_port_counts,
    )

    n = topology.num_nodes
    if topology.channel_model is ChannelModel.HYPERGRAPH_NET:
        nets = topology.net_array()
        if resolved is None:
            alive = np.ones(nets.shape, dtype=bool)
            degraded = np.zeros(nets.shape[0], dtype=bool)
        else:
            alive = ~_id_mask(resolved.down_nodes, n)[nets]
            alive &= ~_id_mask(resolved.down_nets, nets.shape[0])[:, None]
            degraded = _id_mask(resolved.degraded_nets, nets.shape[0])
        size = alive.sum(axis=1, dtype=np.int64)
        carrying = size > 1
        ports = net_crossing_port_counts(topology, alive)
        # serialized: one packet per step on the whole net
        ports = np.where(degraded & (ports > 0), 1, ports)
        per_node = np.bincount(
            nets[alive & carrying[:, None]], minlength=n
        )
        # a rotation moves |net| packets; a degraded net moves one
        total = np.where(carrying, np.where(degraded, 1, size), 0).sum()
        return _Channels(int(ports.sum()), per_node, int(total))
    links = topology.link_array()
    crossing = halving_cut_link_mask(topology)
    if resolved is not None:
        alive = resolved.surviving_graph(topology).edges_alive(
            links[:, 0], links[:, 1]
        )
        links, crossing = links[alive], crossing[alive]
    per_node = np.bincount(links.ravel(), minlength=n)
    # directed slots: each surviving link carries one packet each way
    return _Channels(
        int(np.count_nonzero(crossing)), per_node, 2 * links.shape[0]
    )


def _ceil_div(num, den):
    return -(-num // den)


def step_lower_bound(
    topology,
    demands: Iterable[tuple[int, int]],
    *,
    fault_model=None,
    dropped: int = 0,
) -> tuple[int, dict[str, Any]]:
    """The certified floor on data-transfer steps for one demand set.

    Returns ``(bound, witness)`` where ``bound`` is the max over the
    :data:`BOUND_KINDS` families and ``witness`` records each family's
    value and inputs.  ``dropped`` adversarially discounts that many
    packets (see module docstring); a demand whose endpoints are
    disconnected under ``fault_model`` raises
    :class:`~repro.faults.UnroutableError`.

    ``demands`` is any iterable of ``(source, destination)`` pairs or a
    ``(P, 2)`` integer array; the floor is one NumPy pass over it.
    """
    from ..faults.model import UnroutableError

    resolved = _resolved(topology, fault_model)
    moving = _moving(topology, demands)
    packets = moving.shape[0]
    k = max(0, int(dropped))
    witness: dict[str, Any] = {
        "packets": packets,
        "dropped": k,
        "faulted": resolved is not None and resolved.structural,
    }
    if not packets or k >= packets:
        witness |= {"kinds": {b.name: 0 for b in BOUND_KINDS}, "binding": "trivial"}
        return 0, witness

    sources, dests = moving[:, 0], moving[:, 1]
    dists = _distances(topology, sources, dests, resolved)
    # Discount the k largest distances (adversarially dropped packets).
    surviving = np.sort(dists)[: packets - k]

    # distance: the (k+1)-th largest distance must still be covered.
    distance_bound = int(surviving[-1])

    # bisection: directional crossing demand over the cut capacity.
    half = topology.num_nodes // 2
    left_source, left_dest = sources < half, dests < half
    crossing_lr = int(np.count_nonzero(left_source & ~left_dest))
    crossing_rl = int(np.count_nonzero(left_dest & ~left_source))
    crossing = max(0, max(crossing_lr, crossing_rl) - k)
    channels = _channels(topology, resolved)
    if crossing and not channels.cut:
        raise UnroutableError(
            "demands cross the halving cut but no surviving channel does"
        )
    bisection_bound = _ceil_div(crossing, channels.cut) if crossing else 0

    # ports: the BSP h-relation floor at the most loaded endpoint, per
    # direction (row 0 sends, row 1 receives).
    n = topology.num_nodes
    loads = np.stack(
        (np.bincount(sources, minlength=n), np.bincount(dests, minlength=n))
    )
    h = np.maximum(loads - k, 0)
    max_h = int(h.max())
    # A loaded endpoint always has a channel (a channel-less one fails the
    # distance pass above), so the divisor clamp only touches idle nodes.
    ports_bound = int(_ceil_div(h, np.maximum(channels.per_node, 1)).max())

    # work: total traversals over machine-wide per-step slot capacity.
    total_distance = int(surviving.sum())
    work_bound = (
        _ceil_div(total_distance, channels.total) if total_distance else 0
    )

    kinds = {
        "bisection": bisection_bound,
        "distance": distance_bound,
        "ports": ports_bound,
        "work": work_bound,
    }
    binding = max(kinds, key=lambda name: (kinds[name], name))
    witness |= {
        "kinds": kinds,
        "binding": binding,
        "cut_demand": max(crossing_lr, crossing_rl),
        "cut_capacity": channels.cut,
        "max_distance": distance_bound,
        "total_distance": total_distance,
        "total_capacity": channels.total,
        "max_h": max_h,
    }
    return kinds[binding], witness


def certify(
    topology,
    demands: Iterable[tuple[int, int]],
    achieved: int,
    *,
    fault_model=None,
    dropped: int = 0,
    label: str | None = None,
) -> Certificate:
    """Certify a measured step count against its analytic floor.

    Returns the :class:`Certificate`; raises :class:`BoundViolation` —
    a hard error, never a data point — when ``achieved < bound``.
    """
    bound, witness = step_lower_bound(
        topology, demands, fault_model=fault_model, dropped=dropped
    )
    cert = Certificate(
        achieved=int(achieved), bound=bound, witness=witness, label=label
    )
    if not cert.holds:
        raise BoundViolation(cert)
    return cert


def certify_schedule(schedule, *, label: str | None = None) -> Certificate:
    """Certify a :class:`~repro.sim.schedule.CommSchedule` against the
    floor of its own logical permutation."""
    dests = np.asarray(schedule.logical.destinations, dtype=np.int64)
    demands = np.stack((np.arange(dests.shape[0], dtype=np.int64), dests), axis=1)
    return certify(
        schedule.topology, demands, schedule.num_steps, label=label
    )


def certify_stages(
    topology,
    stages: Sequence[Iterable[tuple[int, int]]],
    achieved: int,
    *,
    label: str | None = None,
) -> Certificate:
    """Certify a staged (barrier-synchronized) program.

    ``stages`` is one demand set per communication superstep; since the
    machine executes them sequentially, the floors *add* — the BSP
    per-superstep argument of arXiv:1707.02229.  The witness carries each
    stage's binding family and floor.
    """
    total = 0
    per_stage: list[dict[str, Any]] = []
    for demands in stages:
        bound, witness = step_lower_bound(topology, demands)
        total += bound
        per_stage.append(
            {"bound": bound, "binding": witness["binding"]}
        )
    cert = Certificate(
        achieved=int(achieved),
        bound=total,
        witness={"binding": "superstep-sum", "stages": per_stage},
        label=label,
    )
    if not cert.holds:
        raise BoundViolation(cert)
    return cert


def program_stage_demands(program) -> list[np.ndarray]:
    """One demand set per communication op of a SIMD machine program, as
    a ``(P, 2)`` int64 array of its moving ``(source, destination)`` pairs.

    Exchange and Permute both realize their schedule's logical permutation
    on the wire; Compute ops move nothing and contribute no stage.
    """
    from ..sim.machine import Exchange, Permute

    stages: list[np.ndarray] = []
    for op in program:
        if isinstance(op, (Exchange, Permute)):
            dests = np.asarray(op.schedule.logical.destinations, dtype=np.int64)
            pairs = np.stack(
                (np.arange(dests.shape[0], dtype=np.int64), dests), axis=1
            )
            stages.append(pairs[pairs[:, 0] != pairs[:, 1]])
    return stages


def certify_program(
    topology, program, achieved: int, *, label: str | None = None
) -> Certificate:
    """Certify a SIMD machine program's measured data-transfer steps
    against the superstep-sum of its communication ops' floors."""
    return certify_stages(
        topology, program_stage_demands(program), achieved, label=label
    )
