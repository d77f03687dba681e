"""The scalar lower-bound certifier: the test oracle for
:func:`repro.bounds.step_lower_bound`.

This is the per-packet, per-link, per-net loop version of the floor —
the same four families, the same witness, the same
:class:`~repro.faults.UnroutableError` messages — kept verbatim as the
reference the vectorized array pass in :mod:`repro.bounds.core` is
diffed against (``tests/bounds/test_vectorized_bounds.py`` and the
differential axis of ``tests/properties/test_bounds_props.py``).  It
walks ``links()``, ``neighbors()``, ``nets()``, scalar ``distance()`` and
per-destination BFS lists; of the array summaries the library certifies
from, it reads only ``num_links()``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

import pytest

from repro.bounds import BOUND_KINDS, certify
from repro.bounds import step_lower_bound as vectorized_step_lower_bound
from repro.faults import UnroutableError

__all__ = ["assert_identical", "step_lower_bound"]


def _resolved(topology, fault_model):
    if fault_model is None:
        return None
    from repro.faults.model import ResolvedFaults, resolve_faults

    if isinstance(fault_model, ResolvedFaults):
        return fault_model
    return resolve_faults(fault_model, topology)


def _moving(demands: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(int(s), int(d)) for s, d in demands if int(s) != int(d)]


def _distances(topology, demands, resolved) -> list[int]:
    """Per-packet hop distances, on the surviving graph under structural
    faults.  Raises :class:`~repro.faults.UnroutableError` when a demand's
    endpoints are disconnected (its bound would be infinite)."""
    from repro.faults.model import UnroutableError

    if resolved is None or not resolved.structural:
        return [int(topology.distance(s, d)) for s, d in demands]
    graph = resolved.surviving_graph(topology)
    by_dest: dict[int, list[int]] = {}
    for s, d in demands:
        by_dest.setdefault(d, []).append(s)
    out: list[int] = []
    for d, sources in by_dest.items():
        table = graph.distances_list(d)
        for s in sources:
            hops = table[s]
            if hops < 0:
                raise UnroutableError(
                    f"no surviving path from {s} to {d}: the step lower "
                    "bound is infinite"
                )
            out.append(int(hops))
    return out


def _is_hypergraph(topology) -> bool:
    from repro.networks.base import ChannelModel

    return topology.channel_model is ChannelModel.HYPERGRAPH_NET


def _alive_net_members(topology, resolved):
    """(net_id, alive member tuple) per net that still carries packets."""
    for net_id, members in enumerate(topology.nets()):
        if resolved is not None and resolved.net_down(net_id):
            continue
        if resolved is not None and resolved.down_nodes:
            members = tuple(
                m for m in members if m not in resolved.down_nodes
            )
        yield net_id, members


def _cut_capacity(topology, resolved) -> int:
    """Packets the index-halving cut passes per step, per direction."""
    n = topology.num_nodes
    half = n // 2
    if _is_hypergraph(topology):
        cap = 0
        for net_id, members in _alive_net_members(topology, resolved):
            left = sum(1 for m in members if m < half)
            ports = min(left, len(members) - left)
            if ports and resolved is not None and net_id in resolved.degraded_nets:
                ports = 1  # serialized: one packet per step on the whole net
            cap += ports
        return cap
    cap = 0
    for u, v in topology.links():
        if (u < half) == (v < half):
            continue
        if resolved is not None and (
            resolved.link_down(u, v)
            or u in resolved.down_nodes
            or v in resolved.down_nodes
        ):
            continue
        cap += 1
    return cap


def _node_channels(topology, resolved) -> list[int]:
    """Per-node incident channel count (send = receive capacity per step)."""
    n = topology.num_nodes
    if resolved is not None and resolved.structural:
        adjacency = resolved.surviving_graph(topology).adjacency
        if _is_hypergraph(topology):
            channels = [0] * n
            for _net_id, members in _alive_net_members(topology, resolved):
                if len(members) > 1:
                    for m in members:
                        channels[m] += 1
            return channels
        return [len(adjacency[v]) for v in range(n)]
    if _is_hypergraph(topology):
        return [len(topology.nets_of(v)) for v in range(n)]
    return [len(topology.neighbors(v)) for v in range(n)]


def _total_capacity(topology, resolved) -> int:
    """Machine-wide channel traversals possible in one step."""
    if _is_hypergraph(topology):
        total = 0
        for net_id, members in _alive_net_members(topology, resolved):
            if len(members) < 2:
                continue
            if resolved is not None and net_id in resolved.degraded_nets:
                total += 1
            else:
                total += len(members)  # a rotation moves |net| packets
        return total
    if resolved is not None and resolved.structural:
        adjacency = resolved.surviving_graph(topology).adjacency
        return sum(len(row) for row in adjacency)  # directed slots
    return 2 * topology.num_links()


def _drop_topk(values: Sequence[int], k: int) -> list[int]:
    """Discount the ``k`` largest entries (adversarially dropped packets)."""
    if k <= 0:
        return list(values)
    return sorted(values)[: max(0, len(values) - k)]


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
    """
    from repro.faults.model import UnroutableError

    resolved = _resolved(topology, fault_model)
    moving = _moving(demands)
    k = max(0, int(dropped))
    witness: dict[str, Any] = {
        "packets": len(moving),
        "dropped": k,
        "faulted": resolved is not None and resolved.structural,
    }
    if not moving or k >= len(moving):
        witness |= {"kinds": {b.name: 0 for b in BOUND_KINDS}, "binding": "trivial"}
        return 0, witness

    dists = _distances(topology, moving, resolved)
    surviving = _drop_topk(dists, k)

    # distance: the (k+1)-th largest distance must still be covered.
    distance_bound = max(surviving) if surviving else 0

    # bisection: directional crossing demand over the cut capacity.
    half = topology.num_nodes // 2
    crossing_lr = sum(1 for s, d in moving if s < half <= d)
    crossing_rl = sum(1 for s, d in moving if d < half <= s)
    crossing = max(0, max(crossing_lr, crossing_rl) - k)
    cut_cap = _cut_capacity(topology, resolved)
    if crossing and not cut_cap:
        raise UnroutableError(
            "demands cross the halving cut but no surviving channel does"
        )
    bisection_bound = math.ceil(crossing / cut_cap) if crossing else 0

    # ports: the BSP h-relation floor at the most loaded endpoint.
    channels = _node_channels(topology, resolved)
    out_load: dict[int, int] = {}
    in_load: dict[int, int] = {}
    for s, d in moving:
        out_load[s] = out_load.get(s, 0) + 1
        in_load[d] = in_load.get(d, 0) + 1
    ports_bound = 0
    max_h = 0
    for load in (out_load, in_load):
        for node, h in load.items():
            h = max(0, h - k)
            if not h:
                continue
            max_h = max(max_h, h)
            # channels[node] > 0: a channel-less endpoint would have been
            # caught as disconnected by the distance pass above.
            ports_bound = max(ports_bound, math.ceil(h / channels[node]))

    # work: total traversals over machine-wide per-step slot capacity.
    total_cap = _total_capacity(topology, resolved)
    total_distance = sum(surviving)
    work_bound = math.ceil(total_distance / total_cap) if total_distance else 0

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
        "cut_capacity": cut_cap,
        "max_distance": distance_bound,
        "total_distance": total_distance,
        "total_capacity": total_cap,
        "max_h": max_h,
    }
    return kinds[binding], witness


def witness_numbers(witness):
    """Every number in a witness, nested dicts included (flags excluded)."""
    for value in witness.values():
        if isinstance(value, dict):
            yield from witness_numbers(value)
        elif not isinstance(value, (str, bool)):
            yield value


def assert_identical(topology, demands, **kwargs):
    """Library (vectorized) floor == this oracle's, including key order,
    int types, JSON-ability of the certificate and error messages.
    Returns the ``(bound, witness)``, or None when both raised."""
    try:
        expected = step_lower_bound(topology, demands, **kwargs)
    except UnroutableError as exc:
        with pytest.raises(UnroutableError) as got:
            vectorized_step_lower_bound(topology, demands, **kwargs)
        assert str(got.value) == str(exc)
        return None
    bound, witness = vectorized_step_lower_bound(topology, demands, **kwargs)
    assert (bound, witness) == expected
    assert list(witness) == list(expected[1])
    assert list(witness["kinds"]) == list(expected[1]["kinds"])
    assert type(bound) is int
    assert all(type(v) is int for v in witness_numbers(witness))
    cert = certify(topology, demands, bound, **kwargs)
    json.dumps(cert.to_dict())
    return bound, witness
