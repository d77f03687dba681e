"""Brute-force re-derivation of topology properties.

Every closed-form quantity the paper's Table 1A relies on — degree, diameter,
crossbar count, bisection width — is recomputed here from first principles
(BFS over adjacency, exhaustive partition search, direct link counting) so the
analytical classes in :mod:`repro.networks` are continuously cross-checked
rather than trusted.  The functions are deliberately topology-agnostic: they
consume only the :class:`~repro.networks.base.Topology` interface.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Mapping

import numpy as np

from .base import HypergraphTopology, PointToPointTopology, Topology

__all__ = [
    "bfs_distances",
    "eccentricity",
    "computed_diameter",
    "computed_average_distance",
    "degree_histogram",
    "max_network_degree",
    "halving_cut_links",
    "halving_cut_link_mask",
    "halving_cut_nets",
    "net_crossing_ports",
    "net_crossing_port_counts",
    "exhaustive_bisection_width",
]


def bfs_distances(topology: Topology, source: int) -> list[int]:
    """Hop distances from ``source`` to every node, by breadth-first search.

    One "hop" is one data-transfer step: a link traversal on a point-to-point
    network, a net traversal on a hypermesh.
    """
    topology.validate_node(source)
    dist = [-1] * topology.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nb in topology.neighbors(node):
            if dist[nb] < 0:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    if any(d < 0 for d in dist):
        raise ValueError("topology is not connected")
    return dist


def eccentricity(topology: Topology, node: int) -> int:
    """Greatest BFS distance from ``node``."""
    return max(bfs_distances(topology, node))


def computed_diameter(topology: Topology) -> int:
    """Diameter by all-pairs BFS — the ground truth for ``.diameter``."""
    return max(eccentricity(topology, node) for node in topology.nodes())


def computed_average_distance(topology: Topology) -> float:
    """Mean BFS distance over ordered node pairs (excluding self-pairs)."""
    n = topology.num_nodes
    if n == 1:
        return 0.0
    total = sum(sum(bfs_distances(topology, node)) for node in topology.nodes())
    return total / (n * (n - 1))


def degree_histogram(topology: Topology) -> Mapping[int, int]:
    """Histogram ``{neighbor_count: how_many_nodes}``."""
    hist: dict[int, int] = {}
    for node in topology.nodes():
        d = len(topology.neighbors(node))
        hist[d] = hist.get(d, 0) + 1
    return hist


def max_network_degree(topology: Topology) -> int:
    """Largest neighbour count over all nodes (excludes the PE port)."""
    return max(len(topology.neighbors(node)) for node in topology.nodes())


def _half(topology: Topology) -> int:
    n = topology.num_nodes
    if n % 2:
        raise ValueError("halving cut needs an even number of nodes")
    return n // 2


def halving_cut_link_mask(topology: PointToPointTopology) -> np.ndarray:
    """Boolean mask over :meth:`~repro.networks.base.PointToPointTopology.\
link_array`: which links join a node ``< N // 2`` to one ``>= N // 2``.

    The one crossing-link computation behind :func:`halving_cut_links`
    and the certifier's bisection floor (which also takes odd ``N``).
    """
    half = topology.num_nodes // 2
    links = topology.link_array()
    return (links[:, 0] < half) != (links[:, 1] < half)


def net_crossing_port_counts(
    topology: HypergraphTopology, alive: np.ndarray | None = None
) -> np.ndarray:
    """Per-net one-way capacity across the index-halving cut.

    Row ``i`` is ``min(members_left, members_right)`` of net ``i``
    (nodes ``< N // 2`` on the left), counting only the members ``alive``
    marks — a boolean mask over :meth:`~repro.networks.base.\
HypergraphTopology.net_array` (every member when ``None``).  The one
    port computation behind :func:`net_crossing_ports` and the
    certifier's bisection floor.
    """
    nets = topology.net_array()
    if alive is None:
        alive = np.ones(nets.shape, dtype=bool)
    left = (alive & (nets < topology.num_nodes // 2)).sum(axis=1, dtype=np.int64)
    return np.minimum(left, alive.sum(axis=1, dtype=np.int64) - left)


def halving_cut_links(topology: PointToPointTopology) -> int:
    """Links crossing the index-halving bisector (nodes < N/2 vs >= N/2).

    For the row-major topologies in this library the halving cut is the
    natural coordinate bisector along the most significant dimension — e.g.
    the horizontal cut through the middle of a 2D mesh, which yields the
    minimum ``sqrt(N)`` crossing links the paper's Section V uses.
    """
    _half(topology)
    return int(np.count_nonzero(halving_cut_link_mask(topology)))


def halving_cut_nets(topology: HypergraphTopology) -> int:
    """Nets with members on both sides of the index-halving bisector."""
    nets = topology.net_array()
    left = (nets < _half(topology)).sum(axis=1)
    return int(np.count_nonzero((left > 0) & (left < nets.shape[1])))


def net_crossing_ports(topology: HypergraphTopology) -> int:
    """Total one-way port capacity crossing the index-halving bisector.

    For each cut net the crossing capacity is limited by the smaller side:
    ``min(members_left, members_right)`` packets can cross per step.  Summed
    over nets this is the step-capacity analogue of a link count; Section V's
    bisection-bandwidth accounting multiplies it by the per-port bandwidth.
    """
    _half(topology)
    return int(net_crossing_port_counts(topology).sum())


def exhaustive_bisection_width(topology: Topology, max_nodes: int = 14) -> int:
    """True bisection width by exhaustive balanced-partition search.

    Counts crossing *channels*: links for point-to-point networks, cut nets
    for hypergraph networks.  Exponential in N — guarded by ``max_nodes``.
    """
    n = topology.num_nodes
    if n % 2:
        raise ValueError("bisection needs an even number of nodes")
    if n > max_nodes:
        raise ValueError(f"exhaustive search limited to {max_nodes} nodes, got {n}")

    if isinstance(topology, PointToPointTopology):
        channels = [frozenset(link) for link in topology.links()]
    elif isinstance(topology, HypergraphTopology):
        channels = [frozenset(net) for net in topology.nets()]
    else:  # pragma: no cover - no other channel models exist
        raise TypeError(f"unsupported topology {type(topology).__name__}")

    best = len(channels) + 1
    all_nodes = frozenset(topology.nodes())
    # Fix node 0 on the left to halve the search space.
    for rest in combinations(range(1, n), n // 2 - 1):
        left = frozenset((0, *rest))
        right = all_nodes - left
        cut = sum(1 for ch in channels if ch & left and ch & right)
        best = min(best, cut)
    return best
