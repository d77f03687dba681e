"""The array forms of the topology interface against their scalar
definitions: ``distance_array`` vs ``distance``, ``link_array`` vs
``links``, ``net_array`` vs ``nets`` / ``net_members``, and the cut counts
in :mod:`repro.networks.properties` vs a per-link / per-net count."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.networks import (
    Hypercube,
    Hypermesh,
    Hypermesh2D,
    Mesh,
    Mesh2D,
    Torus,
    Torus2D,
)
from repro.networks.addressing import (
    mixed_radix_strides,
    to_mixed_radix,
    to_mixed_radix_array,
)
from repro.networks.base import PointToPointTopology, Topology
from repro.networks.properties import (
    halving_cut_link_mask,
    halving_cut_links,
    halving_cut_nets,
    net_crossing_port_counts,
    net_crossing_ports,
)

POINT_TO_POINT = [
    Mesh2D(2), Mesh2D(3), Mesh((2, 3)), Mesh((3, 2, 4)), Mesh((5,)),
    Torus2D(4), Torus((2, 2)), Torus((2, 5)), Torus((3, 2, 4)), Torus((7,)),
    Hypercube(1), Hypercube(3), Hypercube(5),
]
HYPERGRAPH = [Hypermesh2D(3), Hypermesh2D(4), Hypermesh(2, 3), Hypermesh(3, 1), Hypermesh(4, 3)]


def all_pairs(topology):
    n = topology.num_nodes
    return np.array(list(itertools.product(range(n), range(n))), dtype=np.int64).T


@pytest.mark.parametrize("topology", POINT_TO_POINT + HYPERGRAPH, ids=repr)
def test_distance_array_is_distance_over_all_pairs(topology):
    a, b = all_pairs(topology)
    got = topology.distance_array(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [topology.distance(x, y) for x, y in zip(a.tolist(), b.tolist())]


@pytest.mark.parametrize("topology", [Mesh2D(3), Torus((2, 3)), Hypercube(2), Hypermesh2D(3)], ids=repr)
def test_distance_array_rejects_the_first_bad_node_like_distance(topology):
    n = topology.num_nodes
    with pytest.raises(ValueError) as scalar:
        topology.distance(n + 1, n)
    with pytest.raises(ValueError) as array:
        topology.distance_array([0, n + 1, -1], [1, n, 0])
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("topology", POINT_TO_POINT, ids=repr)
def test_link_array_is_links_in_order(topology):
    links = topology.link_array()
    assert links.dtype == np.int64 and links.shape[1] == 2
    assert [tuple(row) for row in links.tolist()] == list(topology.links())
    assert topology.link_array() is links  # cached
    assert not links.flags.writeable
    assert topology.num_links() == sum(1 for _ in topology.links())


def test_torus_extent_two_has_a_single_plus_one_neighbour():
    torus = Torus((2, 3))
    # extent-2 dimension: +1 only, so node 0 -> 3 is one link, not two
    assert torus.link_array().tolist().count([0, 3]) == 1
    assert torus.num_links() == 3 + 6


class GenericMesh(Mesh):
    """A mesh that keeps the base class's generic array methods."""

    distance_array = Topology.distance_array
    _neighbor_table = PointToPointTopology._neighbor_table


def test_generic_defaults_match_the_closed_forms():
    closed, generic = Mesh((3, 4)), GenericMesh((3, 4))
    a, b = all_pairs(closed)
    assert generic.distance_array(a, b).tolist() == closed.distance_array(a, b).tolist()
    assert generic.link_array().tolist() == closed.link_array().tolist()


@pytest.mark.parametrize("topology", HYPERGRAPH, ids=repr)
def test_net_array_matches_net_id_and_members(topology):
    nets = topology.net_array()
    assert nets.shape == (topology.num_nets(), topology.base)
    assert [tuple(row) for row in nets.tolist()] == topology.nets()
    for node in topology.nodes():
        for dim in range(topology.dims):
            row = nets[topology.net_id(dim, node)]
            assert tuple(row.tolist()) == topology.net_members(dim, node)


def test_mixed_radix_array_matches_scalar():
    radices = (3, 2, 5)
    values = np.arange(30)
    assert mixed_radix_strides(radices) == (10, 5, 1)
    assert to_mixed_radix_array(values, radices).tolist() == [
        list(to_mixed_radix(v, radices)) for v in range(30)
    ]


def crossing_links_by_count(topology):
    half = topology.num_nodes // 2
    return sum(1 for u, v in topology.links() if (u < half) != (v < half))


@pytest.mark.parametrize(
    "topology", [t for t in POINT_TO_POINT if t.num_nodes % 2 == 0], ids=repr
)
def test_halving_cut_links_counts_crossing_links(topology):
    assert halving_cut_links(topology) == crossing_links_by_count(topology)
    assert int(halving_cut_link_mask(topology).sum()) == crossing_links_by_count(topology)


def test_halving_cut_link_mask_takes_odd_machines():
    mesh = Mesh2D(3)
    assert int(halving_cut_link_mask(mesh).sum()) == crossing_links_by_count(mesh)
    with pytest.raises(ValueError):
        halving_cut_links(mesh)


@pytest.mark.parametrize("topology", [t for t in HYPERGRAPH if t.num_nodes % 2 == 0], ids=repr)
def test_net_cut_counts_match_per_net_counts(topology):
    half = topology.num_nodes // 2
    lefts = [sum(1 for m in net if m < half) for net in topology.nets()]
    sizes = [len(net) for net in topology.nets()]
    ports = [min(left, size - left) for left, size in zip(lefts, sizes)]
    assert net_crossing_port_counts(topology).tolist() == ports
    assert net_crossing_ports(topology) == sum(ports)
    assert halving_cut_nets(topology) == sum(
        1 for left, size in zip(lefts, sizes) if 0 < left < size
    )


def test_net_crossing_port_counts_counts_only_alive_members():
    hm = Hypermesh2D(4)  # half = 8: rows 0-1 left, rows 2-3 right
    alive = np.ones(hm.net_array().shape, dtype=bool)
    col0 = hm.col_net(0)  # members 0, 4, 8, 12
    alive[col0, 0] = False  # drop node 0
    counts = net_crossing_port_counts(hm, alive)
    assert counts[col0] == 1 and net_crossing_port_counts(hm)[col0] == 2
