"""FFT on general (non-2D) hypermesh shapes — the Section IV remark."""

import numpy as np
import pytest

from repro.core import map_fft
from repro.fft import parallel_fft
from repro.hardware import GAAS_1992, link_bandwidth
from repro.networks import Hypermesh, Hypermesh2D


class TestButterflyOnAnyShape:
    @pytest.mark.parametrize(
        "base,dims", [(2, 4), (4, 2), (4, 3), (8, 2), (16, 1), (16, 3), (8, 4)]
    )
    def test_numerics(self, base, dims, rng):
        hm = Hypermesh(base, dims)
        n = hm.num_nodes
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        result = parallel_fft(hm, x, validate=True)
        assert np.allclose(result.spectrum, np.fft.fft(x))

    @pytest.mark.parametrize(
        "base,dims", [(2, 4), (4, 2), (4, 3), (8, 2), (2, 6)]
    )
    def test_butterfly_is_log_n_steps(self, base, dims):
        hm = Hypermesh(base, dims)
        mapping = map_fft(hm, include_bit_reversal=False)
        assert mapping.butterfly_steps == (hm.num_nodes).bit_length() - 1

    def test_non_power_of_two_base_rejected(self):
        hm = Hypermesh(3, 2)
        with pytest.raises(ValueError):
            map_fft(hm)


class TestShapeTradeoff:
    def test_link_bandwidth_is_kl_over_dims(self):
        kl = GAAS_1992.aggregate_crossbar_bandwidth
        assert link_bandwidth(Hypermesh(8, 4), GAAS_1992) == pytest.approx(kl / 4)
        assert link_bandwidth(Hypermesh(16, 3), GAAS_1992) == pytest.approx(kl / 3)
        assert link_bandwidth(Hypermesh2D(64), GAAS_1992) == pytest.approx(kl / 2)

    def test_2d_shape_fastest_at_64_points(self, rng):
        """At small scale too: fewer dims -> wider links + cheap bitrev."""
        x = rng.normal(size=64)
        expected = np.fft.fft(x)
        times = {}
        for hm in (Hypermesh(4, 3), Hypermesh2D(8)):
            result = parallel_fft(hm, x)
            assert np.allclose(result.spectrum, expected)
            bw = link_bandwidth(hm, GAAS_1992)
            times[hm.dims] = (
                result.data_transfer_steps * GAAS_1992.packet_bits / bw
            )
        assert times[2] < times[3]

    def test_too_many_nets_for_the_ic_budget_rejected(self):
        """base-2 shapes need more nets than the one-IC-per-PE budget can
        serve: the paper's construction constraint, enforced."""
        with pytest.raises(ValueError):
            link_bandwidth(Hypermesh(2, 6), GAAS_1992)

    def test_1d_hypermesh_is_a_single_crossbar(self):
        """base = N, dims = 1: one net holding everyone — bit reversal is
        one step, the degenerate best case (but needs an N-port crossbar)."""
        hm = Hypermesh(16, 1)
        mapping = map_fft(hm)
        assert mapping.bitrev_steps <= 2
        assert mapping.total_steps <= 6
