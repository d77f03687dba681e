"""Unit tests for the parallel bitonic sort."""

import numpy as np
import pytest

from repro.models import bitonic_steps
from repro.core.complexity import NetworkKind
from repro.networks import Hypercube, Hypermesh2D, Mesh2D, Torus2D
from repro.sort import bitonic_pass_bits, map_bitonic_sort, parallel_bitonic_sort


TOPOLOGIES_16 = [Mesh2D(4), Torus2D(4), Hypercube(4), Hypermesh2D(4)]


class TestPassStructure:
    def test_pass_count(self):
        # log N (log N + 1) / 2 passes.
        assert len(bitonic_pass_bits(16)) == 10
        assert len(bitonic_pass_bits(4096)) == 78

    def test_pass_order(self):
        assert bitonic_pass_bits(8) == [
            (0, 0),
            (1, 1),
            (1, 0),
            (2, 2),
            (2, 1),
            (2, 0),
        ]

    def test_mapping_reuses_schedules(self):
        mapping = map_bitonic_sort(Hypercube(3))
        # Same bit -> same schedule object.
        bit_to_sched = {}
        for (_, bit), sched in zip(mapping.pass_bits, mapping.pass_schedules):
            if bit in bit_to_sched:
                assert sched is bit_to_sched[bit]
            bit_to_sched[bit] = sched

    def test_mapping_validates(self):
        map_bitonic_sort(Hypermesh2D(4)).validate()


class TestSorting:
    @pytest.mark.parametrize("topo", TOPOLOGIES_16, ids=lambda t: type(t).__name__)
    def test_random_keys(self, topo, rng):
        keys = rng.normal(size=16)
        result = parallel_bitonic_sort(topo, keys, validate=True)
        assert np.array_equal(result.keys, np.sort(keys))

    def test_already_sorted(self):
        result = parallel_bitonic_sort(Hypercube(4), np.arange(16.0))
        assert np.array_equal(result.keys, np.arange(16.0))

    def test_reverse_sorted(self):
        keys = np.arange(16.0)[::-1].copy()
        result = parallel_bitonic_sort(Hypercube(4), keys)
        assert np.array_equal(result.keys, np.arange(16.0))

    def test_duplicates(self, rng):
        keys = rng.integers(0, 4, size=16).astype(float)
        result = parallel_bitonic_sort(Hypermesh2D(4), keys)
        assert np.array_equal(result.keys, np.sort(keys))

    def test_integer_keys(self, rng):
        keys = rng.integers(-100, 100, size=64)
        result = parallel_bitonic_sort(Hypercube(6), keys)
        assert np.array_equal(result.keys, np.sort(keys))

    def test_larger_on_mesh(self, rng):
        keys = rng.normal(size=64)
        result = parallel_bitonic_sort(Mesh2D(8), keys)
        assert np.array_equal(result.keys, np.sort(keys))


class TestStepAccounting:
    def test_hypercube_pass_count_equals_steps(self):
        result = parallel_bitonic_sort(Hypercube(4), np.zeros(16))
        assert result.data_transfer_steps == 10
        assert result.computation_steps == 10

    def test_hypermesh_same_step_count_as_hypercube(self, rng):
        hm = parallel_bitonic_sort(Hypermesh2D(4), np.zeros(16))
        hc = parallel_bitonic_sort(Hypercube(4), np.zeros(16))
        assert hm.data_transfer_steps == hc.data_transfer_steps
        keys = rng.normal(size=256)
        hm = parallel_bitonic_sort(Hypermesh2D(16), keys)
        hc = parallel_bitonic_sort(Hypercube(8), keys)
        assert hm.data_transfer_steps == hc.data_transfer_steps == 36
        assert np.array_equal(hm.keys, np.sort(keys))
        assert np.array_equal(hc.keys, np.sort(keys))

    def test_mesh_steps_match_model(self, rng):
        result = parallel_bitonic_sort(Mesh2D(4), np.zeros(16))
        assert result.data_transfer_steps == bitonic_steps(NetworkKind.MESH_2D, 16)
        keys = rng.normal(size=256)
        result = parallel_bitonic_sort(Mesh2D(16), keys)
        assert result.data_transfer_steps == bitonic_steps(NetworkKind.MESH_2D, 256)
        assert np.array_equal(result.keys, np.sort(keys))

    def test_model_4096(self):
        assert bitonic_steps(NetworkKind.HYPERCUBE, 4096) == 78
        assert bitonic_steps(NetworkKind.MESH_2D, 4096) == 618


class TestValidation:
    def test_key_count_mismatch(self):
        with pytest.raises(ValueError):
            parallel_bitonic_sort(Hypercube(4), np.zeros(8))

    def test_2d_keys_rejected(self):
        with pytest.raises(ValueError):
            parallel_bitonic_sort(Hypercube(2), np.zeros((2, 2)))
