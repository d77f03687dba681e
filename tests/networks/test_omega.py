"""Unit tests for the Omega multistage network."""

import numpy as np
import pytest

from repro.networks import OmegaNetwork
from repro.routing import (
    Permutation,
    bit_reversal,
    butterfly_exchange,
    perfect_shuffle,
    vector_reversal,
)


class TestStructure:
    def test_stage_and_switch_counts(self):
        om = OmegaNetwork(16)
        assert om.num_ports == 16
        assert om.num_stages == 4
        assert om.switches_per_stage == 8

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            OmegaNetwork(12)

    def test_rejects_single_port(self):
        with pytest.raises(ValueError):
            OmegaNetwork(1)

    def test_shuffle_wiring(self):
        # Rotate-left on 3 bits: 0b011 -> 0b110.
        assert OmegaNetwork._shuffle(0b011, 3) == 0b110
        assert OmegaNetwork._shuffle(0b100, 3) == 0b001


class TestSelfRouting:
    def test_identity_is_admissible(self):
        assert OmegaNetwork(16).is_admissible(Permutation.identity(16))

    @pytest.mark.parametrize("n,bit", [(8, 0), (8, 2), (16, 1), (16, 3), (32, 4)])
    def test_butterfly_exchanges_admissible(self, n, bit):
        # The FFT's stage permutations all pass in one conflict-free pass —
        # the property that makes Omega networks FFT-capable at all.
        assert OmegaNetwork(n).is_admissible(butterfly_exchange(n, bit))

    def test_uniform_shift_admissible(self):
        # Cyclic shift by +1: a classic admissible permutation.
        n = 16
        shift = Permutation(np.arange(1, n + 1) % n)
        assert OmegaNetwork(n).is_admissible(shift)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bit_reversal_not_admissible(self, n):
        # The FFT's *closing* permutation blocks — the contrast with the
        # hypermesh's 3-step rearrangeability.
        assert not OmegaNetwork(n).is_admissible(bit_reversal(n))

    def test_bit_reversal_admissible_at_4(self):
        # Degenerate case: rev on 2 bits = transpose of a 2x2 = shuffle...
        # the 4-port network happens to pass it.
        om = OmegaNetwork(4)
        assert om.passes_required(bit_reversal(4)) <= 2

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_perfect_shuffle_not_admissible(self, n):
        assert not OmegaNetwork(n).is_admissible(perfect_shuffle(n))

    def test_delivery_positions_when_admissible(self):
        n = 16
        perm = butterfly_exchange(n, 2)
        trace = OmegaNetwork(n).route(perm)
        assert trace.admissible
        assert np.array_equal(trace.positions[-1], perm.destinations)

    def test_conflict_reporting(self):
        trace = OmegaNetwork(8).route(bit_reversal(8))
        assert not trace.admissible
        for c in trace.conflicts:
            assert 0 <= c.stage < 3
            assert 0 <= c.switch < 4
            assert c.packets[0] != c.packets[1]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OmegaNetwork(8).route(Permutation.identity(16))


class TestMultiPass:
    def test_admissible_needs_one_pass(self):
        assert OmegaNetwork(16).passes_required(Permutation.identity(16)) == 1

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_bit_reversal_needs_several(self, n):
        passes = OmegaNetwork(n).passes_required(bit_reversal(n))
        assert passes > 1

    def test_vector_reversal(self):
        om = OmegaNetwork(16)
        passes = om.passes_required(vector_reversal(16))
        assert passes >= 1
        # Sanity: greedy never needs more than N passes.
        assert passes <= 16

    @pytest.mark.parametrize("seed", range(5))
    def test_random_permutations_bounded(self, seed):
        n = 16
        perm = Permutation.random(n, np.random.default_rng(seed))
        passes = OmegaNetwork(n).passes_required(perm)
        assert 1 <= passes <= n

    def test_passes_size_mismatch(self):
        with pytest.raises(ValueError):
            OmegaNetwork(8).passes_required(Permutation.identity(4))


class TestHypermeshContrast:
    """Section I's claim, head to head: permutations that block the Omega
    network cost the 2D hypermesh at most 3 steps."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_bit_reversal(self, n):
        from repro.routing import route_permutation_3step

        om_passes = OmegaNetwork(n).passes_required(bit_reversal(n))
        hm_steps = route_permutation_3step(bit_reversal(n)).num_steps
        assert hm_steps <= 3 < om_passes * 1 + 1  # hypermesh strictly better

    def test_random(self):
        from repro.routing import route_permutation_3step

        rng = np.random.default_rng(1)
        worst_om = 0
        for _ in range(5):
            perm = Permutation.random(16, rng)
            worst_om = max(worst_om, OmegaNetwork(16).passes_required(perm))
            assert route_permutation_3step(perm).num_steps <= 3
        assert worst_om >= 2  # random perms essentially never pass in one
