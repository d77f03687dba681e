"""Topology abstraction shared by every interconnection network.

The paper compares three architecturally different networks:

* **point-to-point** graphs (2D mesh, torus, binary hypercube, k-ary
  n-cube), where a *link* joins exactly two routing nodes and can carry one
  packet per direction per data-transfer step; and
* **hypergraph** networks (the hypermesh), where a *net* joins all nodes
  aligned along one dimension and can realize one arbitrary permutation
  among its members per data-transfer step.

:class:`Topology` exposes the common structural interface (nodes, adjacency,
distance, diameter, crossbar inventory), and declares which channel model the
word-level simulator must enforce.  Concrete topologies provide closed-form
answers; :mod:`repro.networks.properties` re-derives the same quantities by
brute force so the formulas used in the paper's Table 1A are never taken on
faith.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

__all__ = ["ChannelModel", "Topology", "PointToPointTopology", "HypergraphTopology"]


class ChannelModel(enum.Enum):
    """How a network's channels are shared during one data-transfer step."""

    #: Each (directed) link carries at most one packet per step.
    POINT_TO_POINT = "point-to-point"
    #: Each hypergraph net realizes at most one partial permutation per step:
    #: every member injects at most one packet and receives at most one.
    HYPERGRAPH_NET = "hypergraph-net"


class Topology(ABC):
    """An interconnection network on ``num_nodes`` processing elements.

    Nodes are integers ``0 .. num_nodes-1``; how an integer maps onto
    coordinates is topology-specific (see :mod:`repro.networks.addressing`).
    """

    #: Short machine-readable identifier ("mesh2d", "hypercube", ...).
    name: str = "topology"

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise ValueError("a topology needs at least one node")
        self._num_nodes = int(num_nodes)

    # ------------------------------------------------------------------ core
    @property
    def num_nodes(self) -> int:
        """Number of processing elements ``N``."""
        return self._num_nodes

    @property
    @abstractmethod
    def channel_model(self) -> ChannelModel:
        """Channel sharing discipline the simulator must enforce."""

    @abstractmethod
    def neighbors(self, node: int) -> tuple[int, ...]:
        """All nodes reachable from ``node`` in one data-transfer step."""

    @abstractmethod
    def distance(self, node_a: int, node_b: int) -> int:
        """Graph distance in data-transfer steps (closed form)."""

    def distance_array(self, nodes_a, nodes_b) -> np.ndarray:
        """Vectorized :meth:`distance` over parallel node arrays (int64).

        Raises the ``ValueError`` :meth:`distance` raises for the first
        out-of-range node, scanning pairs in order and ``a`` before ``b``.
        This generic version maps :meth:`distance`; the concrete
        topologies override it with their closed forms in NumPy.
        """
        a, b = self._node_arrays(nodes_a, nodes_b)
        return np.fromiter(
            map(self.distance, a.tolist(), b.tolist()),
            dtype=np.int64,
            count=a.shape[0],
        )

    def _node_arrays(self, nodes_a, nodes_b) -> tuple[np.ndarray, np.ndarray]:
        """Both node arrays as int64, range-checked like
        :meth:`validate_node` (first bad pair, ``a`` before ``b``)."""
        a = np.asarray(nodes_a, dtype=np.int64)
        b = np.asarray(nodes_b, dtype=np.int64)
        n = self._num_nodes
        bad_a = (a < 0) | (a >= n)
        bad = bad_a | (b < 0) | (b >= n)
        if bad.any():
            i = int(np.argmax(bad))
            self.validate_node(int(a[i] if bad_a[i] else b[i]))
        return a, b

    @property
    @abstractmethod
    def diameter(self) -> int:
        """Maximum :meth:`distance` over all node pairs (closed form)."""

    # ----------------------------------------------------------- hardware
    @property
    @abstractmethod
    def node_degree(self) -> int:
        """Ports per routing node, *including* the port to the local PE.

        This is the paper's "degree": a 2D mesh node has degree 5 (four
        neighbours plus the PE), a hypercube node ``log N + 1``.
        """

    @property
    @abstractmethod
    def num_crossbars(self) -> int:
        """Crossbar switch ICs required to build the network.

        Point-to-point networks place one crossbar per PE; the hypermesh
        spends its IC budget on the nets instead (Section III-D).
        """

    # ----------------------------------------------------------- utilities
    def nodes(self) -> range:
        """Iterate over all node identifiers."""
        return range(self._num_nodes)

    def validate_node(self, node: int) -> int:
        """Raise ``ValueError`` unless ``node`` is a valid identifier."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"node {node} out of range [0, {self._num_nodes})")
        return node

    def __len__(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_nodes={self._num_nodes})"


class PointToPointTopology(Topology):
    """A topology whose channels are two-ended links."""

    @property
    def channel_model(self) -> ChannelModel:
        return ChannelModel.POINT_TO_POINT

    @abstractmethod
    def links(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected link exactly once as ``(u, v)`` with u < v."""

    def link_array(self) -> np.ndarray:
        """Every undirected link as a read-only ``(L, 2)`` int64 array,
        row for row the pairs :meth:`links` yields (cached per instance).

        Built from :meth:`_neighbor_table`: scanning nodes ascending and
        each node's neighbours in :meth:`neighbors` order, keep the pairs
        whose neighbour is the larger node — the definition of
        :meth:`links` on every topology here.
        """
        links = getattr(self, "_link_array", None)
        if links is None:
            table = self._neighbor_table()
            nodes = np.arange(self.num_nodes, dtype=np.int64)
            keep = table > nodes[:, None]
            links = np.stack(
                (np.broadcast_to(nodes[:, None], table.shape)[keep],
                 table[keep]),
                axis=1,
            )
            links.setflags(write=False)
            self._link_array = links
        return links

    def _neighbor_table(self) -> np.ndarray:
        """``(N, k)`` int64: row ``v`` holds :meth:`neighbors` ``(v)`` in
        order, with ``-1`` in slots that have no neighbour.  Topologies
        with closed-form adjacency override this; the generic version asks
        every node."""
        rows = [self.neighbors(v) for v in self.nodes()]
        width = max((len(row) for row in rows), default=0)
        table = np.full((self.num_nodes, width), -1, dtype=np.int64)
        for v, row in enumerate(rows):
            table[v, : len(row)] = row
        return table

    def num_links(self) -> int:
        """Number of undirected links."""
        return int(self.link_array().shape[0])

    def to_networkx(self):
        """Build a ``networkx.Graph`` view (requires the optional extra)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        graph.add_edges_from(self.links())
        return graph


class HypergraphTopology(Topology):
    """A topology whose channels are multi-ended hypergraph nets."""

    @property
    def channel_model(self) -> ChannelModel:
        return ChannelModel.HYPERGRAPH_NET

    @abstractmethod
    def nets(self) -> Sequence[tuple[int, ...]]:
        """All hypergraph nets, each as the tuple of member nodes."""

    @abstractmethod
    def nets_of(self, node: int) -> tuple[int, ...]:
        """Indices (into :meth:`nets`) of the nets ``node`` belongs to."""

    def net_array(self) -> np.ndarray:
        """All nets as a read-only ``(num_nets, net_size)`` int64 array,
        row for row the tuples :meth:`nets` returns (cached per instance).

        Every net must have the same size.
        """
        nets = getattr(self, "_net_array", None)
        if nets is None:
            nets = np.array(self.nets(), dtype=np.int64)
            nets.setflags(write=False)
            self._net_array = nets
        return nets

    def num_nets(self) -> int:
        """Number of hypergraph nets."""
        return len(self.nets())

    def shared_net(self, node_a: int, node_b: int) -> int | None:
        """Identifier of a net containing both nodes, or ``None``.

        ``None`` when the nodes share no net, and also when
        ``node_a == node_b`` (a packet never traverses a net to stay put).
        If several nets contain both nodes, the first net in
        ``nets_of(node_b)`` order wins; on hypermeshes the shared net is
        unique, so the tiebreak never fires there.

        The generic implementation memoizes a ``neighbour -> net`` mapping
        per node on first use, so the word-level simulator's hot loop pays
        one dict probe instead of a set intersection per proposal.
        Subclasses with closed-form structure (:class:`~repro.networks.
        hypermesh.Hypermesh`) override it without any cache at all.
        """
        lookup: dict[int, dict[int, int]] | None
        lookup = getattr(self, "_shared_net_cache", None)
        if lookup is None:
            lookup = {}
            self._shared_net_cache = lookup
        per_node = lookup.get(node_b)
        if per_node is None:
            self.validate_node(node_a)
            per_node = {}
            nets = self.nets()
            for net in self.nets_of(node_b):
                for member in nets[net]:
                    if member != node_b:
                        per_node.setdefault(member, net)
            lookup[node_b] = per_node
        return per_node.get(node_a)

    def to_networkx(self):
        """Clique-expansion ``networkx.Graph`` (each net becomes a clique).

        Distances in the clique expansion equal hypermesh distances, which is
        what the brute-force validators need.
        """
        import networkx as nx
        from itertools import combinations

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes())
        for net in self.nets():
            graph.add_edges_from(combinations(net, 2))
        return graph
