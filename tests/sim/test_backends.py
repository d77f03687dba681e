"""The engine core against the scalar oracle, enforced.

:func:`repro.sim.core.route_core` — the structure-of-arrays NumPy core both
entry points run, labelled ``numpy`` in test ids — promises byte-for-byte
the observable output of the scalar oracle
:func:`repro.sim._reference.route_oracle` in all four modes, {fault-free,
faulted} x {overtaking, fifo}: same step dicts *in the same insertion
order*, same :class:`~repro.sim.stats.RoutingStats`, same ``on_fault``
event streams, same error messages, and therefore the same plan-cache
blobs.  These tests are that contract; the differential fuzz harness in
``tests/properties/test_engine_fuzz.py`` extends them with random draws.
"""

import numpy as np
import pytest

from repro.faults import FaultModel, UnroutableError
from repro.networks import (
    Hypercube,
    Hypermesh,
    Hypermesh2D,
    Mesh,
    Mesh2D,
    Torus,
    Torus2D,
)
from repro.routing import Permutation, bit_reversal
from repro.sim import PlanCache, plan_key, route_demands, route_permutation
from repro.sim._reference import reference_route_core, route_oracle
from repro.sim.core import route_core
from repro.sim.plancache import CachedPlan
from repro.sim.routers import router_for
from repro.sim.schedule import ScheduleError

TOPOLOGIES = [
    Mesh2D(4),
    Torus2D(4),
    Hypercube(4),
    Hypermesh2D(4),
    Mesh((3, 5)),
    Torus((5, 3)),
    Hypermesh(3, 3),
]
IDS = [f"{type(t).__name__}-{t.num_nodes}" for t in TOPOLOGIES]

#: Test-id label of the engine core under test.
CORE_ID = "numpy"

ARBITRATIONS = ["overtaking", "fifo"]


def run_core(core, topology, sources, dests, *args, **kwargs):
    router = router_for(topology)
    max_steps = 100 * (10 * topology.diameter + 10 * topology.num_nodes)
    return core(topology, sources, dests, router, max_steps, *args, **kwargs)


def assert_bit_identical(got, want):
    got_steps, got_stats = got
    want_steps, want_stats = want
    assert got_steps == want_steps
    # Dict equality ignores insertion order, but the plan cache serializes
    # each step's keys in insertion order — so the order is contractual.
    for g, w in zip(got_steps, want_steps):
        assert list(g.items()) == list(w.items())
    assert got_stats == want_stats


def model_for(topology, seed=3):
    """An enabled fault model the topology can carry: degraded nets and
    drops on hypergraph machines, link kills and drops elsewhere."""
    if isinstance(topology, (Hypermesh2D, Hypermesh)):
        return FaultModel(degraded_nets=(0,), drop_prob=0.2, retry_limit=3,
                          seed=seed)
    return FaultModel(link_fail_fraction=0.1, drop_prob=0.2, retry_limit=3,
                      seed=seed)


class TestErrorMessages:
    def test_bad_arbitration_message_identical(self):
        topo = Mesh2D(2)
        router = router_for(topo)
        with pytest.raises(ValueError, match="unknown arbitration") as a:
            route_core(topo, [0], [3], router, 10, arbitration="magic")
        with pytest.raises(ValueError, match="unknown arbitration") as b:
            route_oracle(topo, [0], [3], router, 10, arbitration="magic")
        assert str(a.value) == str(b.value)

    def test_unroutable_message_identical(self):
        topo = Mesh2D(4)
        model = FaultModel(node_failures={5}, seed=1)
        args = (topo, [0, 1], [15, 5], router_for(topo), 100, model)
        with pytest.raises(UnroutableError, match="failed node 5") as a:
            route_core(*args)
        with pytest.raises(UnroutableError) as b:
            route_oracle(*args)
        assert str(a.value) == str(b.value)

    def test_non_net_hop_message_identical(self):
        class Teleport:
            def next_hop(self, current, dest):
                return dest

        topo = Hypermesh2D(4)
        args = (topo, [0], [15], Teleport(), 10)
        with pytest.raises(ScheduleError, match="non-net hop 0 -> 15") as a:
            route_core(*args)
        with pytest.raises(ScheduleError) as b:
            route_oracle(*args)
        assert str(a.value) == str(b.value)


@pytest.mark.parametrize("core", [route_core], ids=[CORE_ID])
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
class TestCoreEquivalence:
    def test_permutations_both_arbitrations(self, topology, core, rng):
        n = topology.num_nodes
        for _ in range(2):
            perm = Permutation.random(n, rng)
            src, dst = list(range(n)), perm.destinations.tolist()
            for arbitration in ARBITRATIONS:
                got = run_core(
                    core, topology, src, dst, arbitration=arbitration
                )
                want = run_core(
                    route_oracle, topology, src, dst, arbitration=arbitration
                )
                assert_bit_identical(got, want)

    def test_h_relations_and_hotspot(self, topology, core, rng):
        n = topology.num_nodes
        cases = [
            (rng.integers(0, n, 3 * n).tolist(), rng.integers(0, n, 3 * n).tolist()),
            (list(range(n)), [0] * n),  # hotspot: maximal arbitration
            ([0, 0, 1], [0, 1, 1]),  # already-home packets and overlap
        ]
        for src, dst in cases:
            for arbitration in ARBITRATIONS:
                got = run_core(
                    core, topology, src, dst, arbitration=arbitration
                )
                want = run_core(
                    route_oracle, topology, src, dst, arbitration=arbitration
                )
                assert_bit_identical(got, want)

    def test_matches_seed_reference(self, topology, core, rng):
        n = topology.num_nodes
        perm = Permutation.random(n, rng)
        src, dst = list(range(n)), perm.destinations.tolist()
        assert_bit_identical(
            run_core(core, topology, src, dst),
            run_core(reference_route_core, topology, src, dst),
        )


@pytest.mark.parametrize("core", [route_core], ids=[CORE_ID])
class TestBackendSemantics:
    """The engine core's run-time semantics, checked against the oracle."""

    def test_max_steps_guard_identical(self, core):
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        for arbitration in ARBITRATIONS:
            for extra in ((), (FaultModel(drop_prob=0.2, seed=3),)):
                args = (topo, list(range(16)), perm.destinations.tolist(),
                        router_for(topo), 2, *extra)
                with pytest.raises(ScheduleError, match="undelivered") as got:
                    core(*args, arbitration=arbitration)
                with pytest.raises(ScheduleError, match="undelivered") as want:
                    route_oracle(*args, arbitration=arbitration)
                assert str(got.value) == str(want.value)

    def test_on_step_and_timing(self, core):
        topo = Mesh2D(4)
        perm = bit_reversal(16)
        for model in (None, FaultModel(drop_prob=0.3, retry_limit=2, seed=5)):
            seen = []

            def probe(step, moves, stats):
                seen.append((step, dict(moves), stats.steps))

            routed = route_permutation(
                topo, perm, on_step=probe, timing=True, cache=False,
                fault_model=model,
            )
            assert len(seen) == routed.stats.steps
            assert [s for s, _, _ in seen] == list(range(routed.stats.steps))
            assert [m for _, m, _ in seen] == [
                dict(s) for s in routed.schedule.steps
            ]
            assert len(routed.stats.per_step_seconds) == routed.stats.steps

    @pytest.mark.parametrize("faulted", [False, True])
    def test_entry_points_match_the_oracle(self, core, faulted):
        topo = Hypermesh2D(4)
        perm = bit_reversal(16)
        model = model_for(topo) if faulted else None
        want = run_core(
            route_oracle, topo, list(range(16)), perm.destinations.tolist(),
            model,
        )
        via_perm = route_permutation(topo, perm, fault_model=model,
                                     cache=False)
        assert_bit_identical(
            (list(via_perm.schedule.steps), via_perm.stats), want
        )
        demands = [(i, int(perm.destinations[i])) for i in range(16)]
        via_dem = route_demands(topo, demands, fault_model=model, cache=False)
        assert_bit_identical((list(via_dem.steps), via_dem.stats), want)


class TestPlanBlobs:
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("arbitration", ARBITRATIONS)
    def test_core_blob_equals_oracle_blob(
        self, rng, tmp_path, arbitration, faulted
    ):
        """A plan blob recorded by the engine is byte-identical to the blob
        built from the oracle's steps and stats under the same key."""
        topo = Hypermesh2D(4)
        perm = Permutation.random(topo.num_nodes, rng)
        src, dst = list(range(16)), perm.destinations.tolist()
        model = model_for(topo) if faulted else None
        engine_cache = PlanCache(tmp_path / "engine")
        route_permutation(topo, perm, arbitration=arbitration,
                          fault_model=model, cache=engine_cache)
        key = plan_key(topo, src, dst, router_for(topo), arbitration, model)
        oracle_cache = PlanCache(tmp_path / "oracle")
        oracle_cache.put(key, CachedPlan.from_run(*run_core(
            route_oracle, topo, src, dst, model, arbitration=arbitration,
        )))
        engine_blob = engine_cache.blob_path(key)
        assert engine_blob.exists()
        assert engine_blob.read_bytes() == oracle_cache.blob_path(key).read_bytes()


# Fault configurations exercising every faulted code path: structural link
# kills (detours), drops + retries (seeded draws), degraded hypermesh nets
# (serial arbitration), hard-down nets, and their combinations.
P2P_FAULTS = [
    FaultModel(link_fail_fraction=0.15, seed=3),
    FaultModel(drop_prob=0.3, retry_limit=2, seed=5),
    FaultModel(link_fail_fraction=0.1, drop_prob=0.2, retry_limit=4, seed=11),
]
HYPER_FAULTS = [
    FaultModel(degraded_nets=(0, 2), seed=3),
    FaultModel(degraded_nets=(1,), drop_prob=0.25, retry_limit=3, seed=9),
    FaultModel(net_failures=(0,), seed=4),
    FaultModel(
        net_failures=(0,), degraded_nets=(1, 2),
        drop_prob=0.15, retry_limit=5, seed=13,
    ),
]


def run_degraded(core, topology, model, *, arbitration, seed=7, **kwargs):
    n = topology.num_nodes
    rng = np.random.default_rng(seed)
    dests = [int(x) for x in rng.permutation(n)]
    return run_core(
        core, topology, list(range(n)), dests, model,
        arbitration=arbitration, **kwargs
    )


@pytest.mark.parametrize("arbitration", ARBITRATIONS)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=IDS)
class TestDegradedEquivalence:
    """The core's faulted mode is bit-identical to the oracle's scalar
    (packet-indexed) degraded sweep on every topology family, both
    arbitration policies, and every fault mechanism — including the
    seeded drop-draw sequence, whose retry/drop accounting must land in
    :class:`RoutingStats` identically."""

    def faults_for(self, topology):
        if isinstance(topology, (Hypermesh2D, Hypermesh)):
            return P2P_FAULTS[1:2] + HYPER_FAULTS  # no link kills on nets
        return P2P_FAULTS

    def test_bit_identical_to_indexed_degraded(self, topology, arbitration):
        for model in self.faults_for(topology):
            want = run_degraded(
                route_oracle, topology, model, arbitration=arbitration
            )
            got = run_degraded(
                route_core, topology, model, arbitration=arbitration
            )
            assert_bit_identical(got, want)

    def test_retry_and_drop_accounting(self, topology, arbitration):
        model = FaultModel(drop_prob=0.4, retry_limit=1, seed=17)
        _, want = run_degraded(
            route_oracle, topology, model, arbitration=arbitration
        )
        _, got = run_degraded(
            route_core, topology, model, arbitration=arbitration
        )
        assert got.retried == want.retried
        assert got.dropped == want.dropped
        assert got.delivered == want.delivered
        assert got.delivered + got.dropped == topology.num_nodes
        assert got.retried > 0 and got.dropped > 0  # the draw actually bites

    def test_on_fault_event_streams_identical(self, topology, arbitration):
        model = FaultModel(
            drop_prob=0.35, retry_limit=2, seed=21,
        )
        want_events, got_events = [], []
        run_degraded(
            route_oracle, topology, model, arbitration=arbitration,
            on_fault=lambda *a: want_events.append(a),
        )
        run_degraded(
            route_core, topology, model, arbitration=arbitration,
            on_fault=lambda *a: got_events.append(a),
        )
        assert got_events == want_events


class TestDegradedEngineDispatch:
    def test_numpy_backend_via_engine_matches_indexed(self, rng):
        """``route_permutation`` with an enabled model runs the core's
        faulted mode and matches the oracle's scalar degraded sweep."""
        for topo in (Mesh2D(4), Hypermesh2D(4)):
            perm = Permutation.random(topo.num_nodes, rng)
            model = (
                FaultModel(link_fail_fraction=0.2, seed=5)
                if isinstance(topo, Mesh2D)
                else FaultModel(degraded_nets=(0,), drop_prob=0.2,
                                retry_limit=3, seed=7)
            )
            routed = route_permutation(
                topo, perm, fault_model=model, cache=False
            )
            assert_bit_identical(
                (list(routed.schedule.steps), routed.stats),
                run_core(route_oracle, topo, list(range(topo.num_nodes)),
                         perm.destinations.tolist(), model),
            )

    def test_backend_keyword_is_gone(self):
        with pytest.raises(TypeError, match="backend"):
            route_permutation(Mesh2D(2), bit_reversal(4), backend="numpy")
