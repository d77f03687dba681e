"""Integration tests pinning every number the paper publishes.

Each test quotes the paper's sentence it verifies.  These are the
reproduction's contract: if any of them fails, EXPERIMENTS.md is wrong.
"""

import pytest

from repro.core.complexity import NetworkKind
from repro.hardware import GAAS_1992, link_bandwidth, link_pins, step_time
from repro.models import (
    bisection_ratios,
    bitonic_comparison,
    section4_comparison,
)
from repro.networks import Hypercube, Hypermesh2D, Mesh2D


class TestSection4Hardware:
    def test_mesh_12_8_pins_2_56_gbit_50ns(self):
        """'each inter-PE link would use 64/5 = 12.8 crossbar IO pins for an
        inter-PE link bandwidth of 2.56 Gbit/sec ... 50 nanosec.'"""
        mesh = Mesh2D(64)
        assert link_pins(mesh, GAAS_1992) == pytest.approx(12.8)
        assert link_bandwidth(mesh, GAAS_1992) == pytest.approx(2.56e9)
        assert step_time(mesh, GAAS_1992) == pytest.approx(50e-9)

    def test_hypercube_4_92_pins_985_mbit_130ns(self):
        """'each inter-PE link would use 64/13 = 4.92 crossbar IO pins for an
        inter-PE link bandwidth of .985 Gbit/sec ... 130 nanosec.'"""
        cube = Hypercube(12)
        assert link_pins(cube, GAAS_1992) == pytest.approx(4.92, abs=5e-3)
        assert link_bandwidth(cube, GAAS_1992) == pytest.approx(0.985e9, rel=1e-3)
        assert step_time(cube, GAAS_1992) == pytest.approx(130e-9, rel=1e-2)

    def test_hypermesh_32_ics_6_4_gbit_20ns(self):
        """'each hypermesh net uses 32 GaAs ICs in parallel. The inter-PE
        link bandwidth is then ... 6.4 Gbit/sec ... 20 nanosec.'"""
        hm = Hypermesh2D(64)
        # 32 pins per node port = 32 ICs x 64 ports / 64 members.
        assert link_pins(hm, GAAS_1992) == pytest.approx(32.0)
        assert link_bandwidth(hm, GAAS_1992) == pytest.approx(6.4e9)
        assert step_time(hm, GAAS_1992) == pytest.approx(20e-9)

    def test_128_nets_choice(self):
        """'a 2D 64x64 hypermesh with 64 rows and 64 columns ... a total of
        128 nets.'"""
        assert Hypermesh2D(64).num_nets() == 128


class TestEquations2Through4:
    def test_equation_2(self):
        """'(5/2 sqrt(N) steps)(50 nsec/step) = 8 usec'"""
        cmp_ = section4_comparison()
        t = cmp_.times[NetworkKind.MESH_2D]
        assert t.steps == 160
        assert t.total == pytest.approx(8e-6)

    def test_equation_3(self):
        """'(2 log N steps)(130 nanosec/step) = 3.12 usec'"""
        t = section4_comparison().times[NetworkKind.HYPERCUBE]
        assert t.steps == 24
        assert t.total == pytest.approx(3.12e-6, rel=1e-2)

    def test_equation_4(self):
        """'(log N + 3 steps)(20 nanosec/step) = 0.3 usec'"""
        t = section4_comparison().times[NetworkKind.HYPERMESH_2D]
        assert t.steps == 15
        assert t.total == pytest.approx(0.3e-6)

    def test_headline_26_6_and_10_4(self):
        """'faster than the 2D mesh by a factor of 26.6, and ... faster than
        the binary hypercube by a factor of 10.4'"""
        cmp_ = section4_comparison()
        assert cmp_.speedup_vs_mesh == pytest.approx(26.6, abs=0.1)
        assert cmp_.speedup_vs_hypercube == pytest.approx(10.4, abs=0.1)

    def test_no_bitrev_26_6_and_6_5(self):
        """'If the bit-reversal is not needed ... the figures become 26.6 and
        6.5 respectively.'"""
        cmp_ = section4_comparison(include_bitrev=False)
        assert cmp_.speedup_vs_mesh == pytest.approx(26.6, abs=0.1)
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.5, abs=0.05)


class TestSection4B:
    def test_13_3_and_6(self):
        """'the 2D hypermesh is faster than the 2D mesh and the binary
        hypercube by factors of 13.3 and 6 respectively' (20 ns propagation)."""
        cmp_ = section4_comparison(propagation_delay=20e-9)
        assert cmp_.speedup_vs_mesh == pytest.approx(13.3, abs=0.05)
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.0, abs=0.05)

    def test_hypermesh_wins_at_every_line_delay(self):
        """Sweeping the line delay 0-100 ns: the advantage over the mesh
        shrinks monotonically, but the hypermesh stays ahead of both."""
        sweep = [section4_comparison(propagation_delay=d * 1e-9)
                 for d in (0, 10, 20, 50, 100)]
        assert all(c.speedup_vs_mesh > 1 for c in sweep)
        assert all(c.speedup_vs_hypercube > 1 for c in sweep)
        vs_mesh = [c.speedup_vs_mesh for c in sweep]
        assert vs_mesh == sorted(vs_mesh, reverse=True)


class TestSection5:
    def test_bisection_ratios(self):
        """'bisection bandwidth that is larger than that of the 2D mesh and
        the binary hypercube by factors of O(sqrt(N)) and O(log N)'"""
        r_mesh, r_hc = bisection_ratios(4096, GAAS_1992)
        assert r_mesh == pytest.approx(2.5 * 64)
        assert r_hc == pytest.approx(12.0)


class TestBitonicCrossCheck:
    def test_hypercube_ratio_near_6_47(self):
        """'[13] concluded that the hypermesh is faster than ... the binary
        hypercube by factors of 12.3 and 6.47' — the hypercube ratio is
        normalization-only and reproduces; the mesh ratio depends on [13]'s
        mapping (documented deviation)."""
        cmp_ = bitonic_comparison()
        assert cmp_.speedup_vs_hypercube == pytest.approx(6.47, abs=0.1)


class TestConclusionsStepGap:
    def test_log_n_minus_3_fewer_steps(self):
        """'the algorithm requires log N - 3 fewer data transfer steps than
        the similar FFT algorithm for the binary hypercube'"""
        from repro.models import fft_steps

        n = 4096
        hc = fft_steps(NetworkKind.HYPERCUBE, n)
        hm = fft_steps(NetworkKind.HYPERMESH_2D, n)
        log_n = 12
        assert hc - hm == log_n - 3
