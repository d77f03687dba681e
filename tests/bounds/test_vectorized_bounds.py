"""The array-pass :func:`repro.bounds.step_lower_bound` against the scalar
oracle (``tests/bounds/scalar_oracle.py``).

Identity means the same ``(bound, witness)`` — equal values, the same key
order, plain ``int`` numbers — and the same
:class:`~repro.faults.UnroutableError` message, naming the same first
culprit.  The fixed cases sit at the shapes the offline routing batch
certifies under faults (N = 1024: torus with 1% of links down, hypercube
with 3%, hypermesh with one degraded net); the hypothesis axis is in
``tests/properties/test_bounds_props.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from bounds.scalar_oracle import assert_identical

from repro.bounds import certify_stages, step_lower_bound
from repro.faults import FaultModel, UnroutableError, resolve_faults
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.networks.base import PointToPointTopology
from repro.sim import build_workload, route_demands


FAULTED_CELLS = {
    "torus2d": lambda seed: (
        Torus2D(32), FaultModel(seed=seed, link_fail_fraction=0.01)
    ),
    "hypercube": lambda seed: (
        Hypercube(10), FaultModel(seed=seed, link_fail_fraction=0.03)
    ),
    "hypermesh2d": lambda seed: (
        Hypermesh2D(32), FaultModel(seed=seed, degraded_nets=frozenset({seed % 64}))
    ),
}


@pytest.mark.parametrize("workload", ["dense-permutation", "bit-reversal", "sparse-hrelation"])
@pytest.mark.parametrize("name", sorted(FAULTED_CELLS))
def test_faulted_batch_shapes_match_the_oracle(name, workload):
    topo, model = FAULTED_CELLS[name](7)
    sources, dests = build_workload(workload, topo.num_nodes, 3)
    demands = list(zip(sources, dests))
    routed = route_demands(
        topo, demands, fault_model=model.with_(drop_prob=0.05, retry_limit=3)
    )
    for dropped in sorted({0, routed.stats.dropped, 5}):
        assert_identical(topo, demands, fault_model=model, dropped=dropped)
    assert_identical(topo, demands)  # the intact machine


@pytest.mark.parametrize(
    "topology", [Mesh2D(3), Mesh2D(8), Torus2D(6), Hypercube(5), Hypermesh2D(5)],
    ids=repr,
)
def test_intact_cells_match_the_oracle(topology, rng):
    n = topology.num_nodes
    for dropped in (0, 1, 3):
        perm = rng.permutation(n)
        assert_identical(topology, list(zip(range(n), perm.tolist())), dropped=dropped)
        hot = rng.integers(0, n, size=3 * n)
        assert_identical(topology, [(int(s), 0) for s in hot], dropped=dropped)


def test_array_and_generator_demands_match_pairs():
    topo = Mesh2D(4)
    pairs = [(0, 15), (3, 12), (5, 5), (9, 6)]
    expected = step_lower_bound(topo, pairs)
    assert step_lower_bound(topo, np.array(pairs)) == expected
    assert step_lower_bound(topo, iter(pairs)) == expected


@pytest.mark.parametrize(
    "model", [None, FaultModel(seed=1, link_failures=frozenset({(0, 1)}))],
    ids=["intact", "faulted"],
)
def test_out_of_range_demands_are_rejected(model):
    # Intact, the scalar distance() always rejected a bad node; on the
    # faulted path a negative id used to index the distance table from
    # the end and return a floor for a node that does not exist.
    topo = Mesh2D(4)
    with pytest.raises(ValueError, match="node -1 out of range"):
        step_lower_bound(topo, [(2, 3), (-1, 3), (16, 0)], fault_model=model)
    with pytest.raises(ValueError, match="node 16 out of range"):
        step_lower_bound(topo, [(2, 16), (-1, 3)], fault_model=model)
    assert step_lower_bound(topo, [(16, 16)], fault_model=model)[0] == 0


def test_unroutable_names_the_scalar_first_culprit():
    # Node 5 is down.  Packet 1 (5 -> 7) is the first unreachable packet in
    # packet order, but the per-destination scan visits destination 3 (first
    # seen at packet 0) before 7, so both passes must blame 5 -> 3.
    topo = Mesh2D(4)
    model = FaultModel(seed=1, node_failures=frozenset({5}))
    demands = [(0, 3), (5, 7), (1, 2), (5, 3)]
    assert assert_identical(topo, demands, fault_model=model) is None
    with pytest.raises(UnroutableError, match="from 5 to 3"):
        step_lower_bound(topo, demands, fault_model=model)


class TwoIslands(PointToPointTopology):
    """Links 0-1 and 2-3 only, with a distance that (wrongly) calls every
    pair adjacent: the one way to reach the cut-capacity error, which a
    connected machine can never raise."""

    name = "two-islands"

    def __init__(self):
        super().__init__(4)

    def neighbors(self, node):
        return (node ^ 1,)

    def links(self):
        yield from ((0, 1), (2, 3))

    def distance(self, a, b):
        return int(a != b)

    diameter = 1
    node_degree = 2
    num_crossbars = 4


def test_cut_error_message_matches_the_oracle():
    topo = TwoIslands()
    assert assert_identical(topo, [(0, 2)]) is None
    with pytest.raises(UnroutableError, match="cross the halving cut"):
        step_lower_bound(topo, [(0, 2)])


def test_channel_summaries_are_cached_per_instance():
    from repro.bounds.core import _channels

    topo = Torus2D(4)
    assert _channels(topo, None) is _channels(topo, None)
    resolved = resolve_faults(FaultModel(seed=3, link_fail_fraction=0.2), topo)
    faulted = _channels(topo, resolved)
    assert _channels(topo, resolved) is faulted
    assert faulted.total < _channels(topo, None).total


def test_certify_stages_reads_the_module_attribute(monkeypatch):
    # The perturbed-bound gate patches repro.bounds.core.step_lower_bound;
    # the staged certifier must pick the patch up.
    calls = []

    def spy(topology, demands, **kwargs):
        calls.append(len(list(demands)))
        return 0, {"binding": "trivial", "kinds": {}}

    monkeypatch.setattr("repro.bounds.core.step_lower_bound", spy)
    certify_stages(Mesh2D(2), [[(0, 1)], [(1, 0), (2, 3)]], 0)
    assert calls == [1, 2]
