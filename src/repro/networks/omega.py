"""The Omega multistage interconnection network.

Section I positions the hypermesh against the two incumbent architectures:
point-to-point networks (mesh, hypercube) and **multistage networks** — and
claims the hypermesh "can realize all Omega, Omega Inverse, DESCEND and
ASCEND permutations in one pass and in minimum logical distance".  To test
that claim against the real thing, this module implements the classical
Omega network of Lawrie:

* ``log2 N`` stages, each a perfect shuffle followed by a column of
  ``N/2`` two-by-two switches;
* destination-tag self-routing: at stage ``s`` a packet follows bit
  ``log N - 1 - s`` of its destination address (0 = upper output);
* a permutation is **admissible** (passable in one conflict-free pass) iff
  no switch is asked to send both inputs to the same output.

The FFT's butterfly exchanges and the identity are admissible; most
permutations — bit reversal for ``N > 4``, and even the perfect shuffle
itself — are not and must be serialized over several passes.  That is
exactly the weakness the hypermesh's 3-step rearrangeability removes (see
``tests/networks/test_omega.py`` and the ``omega`` section of ``repro paper``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..routing.permutation import Permutation
from .addressing import ilog2

__all__ = ["OmegaNetwork", "OmegaTrace", "SwitchConflict"]


@dataclass(frozen=True)
class SwitchConflict:
    """Two packets demanding the same switch output in the same stage."""

    stage: int
    switch: int
    output_port: int
    packets: tuple[int, int]


@dataclass(frozen=True)
class OmegaTrace:
    """The stage-by-stage port occupancy of one routing attempt.

    ``positions[s]`` gives, for each packet, the input-port index it occupies
    entering stage ``s`` (``positions[0]`` is the injection order); the final
    row is the output-port arrangement.
    """

    positions: np.ndarray  # (stages + 1, N)
    conflicts: tuple[SwitchConflict, ...]

    @property
    def admissible(self) -> bool:
        """True when the permutation passed without switch conflicts."""
        return not self.conflicts


class OmegaNetwork:
    """An ``N x N`` Omega network (``N`` a power of two).

    The network is *unbuffered*: :meth:`route` reports conflicts rather than
    serializing them, because the quantity of interest is one-pass
    admissibility (Section I's comparison).  :meth:`passes_required`
    serializes greedily to give the multi-pass cost of an arbitrary
    permutation.
    """

    def __init__(self, num_ports: int):
        self._width = ilog2(num_ports)
        if self._width < 1:
            raise ValueError("an Omega network needs at least 2 ports")
        self._n = num_ports

    @property
    def num_ports(self) -> int:
        """Inputs (= outputs) of the network."""
        return self._n

    @property
    def num_stages(self) -> int:
        """``log2 N`` switch columns."""
        return self._width

    @property
    def switches_per_stage(self) -> int:
        """``N / 2`` two-by-two switches per column."""
        return self._n // 2

    # ------------------------------------------------------------- routing
    @staticmethod
    def _shuffle(port: int, width: int) -> int:
        """Perfect shuffle: rotate the port address left by one bit."""
        high = (port >> (width - 1)) & 1
        return ((port << 1) & ((1 << width) - 1)) | high

    def route(self, perm: Permutation) -> OmegaTrace:
        """Self-route one packet per input port toward ``perm``.

        Packets traverse every stage even when conflicting (each records the
        output it *demanded*), so the trace shows all conflicts of the pass,
        not just the first.
        """
        if perm.n != self._n:
            raise ValueError(
                f"permutation on {perm.n} points, network has {self._n} ports"
            )
        n, width = self._n, self._width
        positions = np.empty((width + 1, n), dtype=np.int64)
        positions[0] = np.arange(n)
        conflicts: list[SwitchConflict] = []
        current = np.arange(n)
        for stage in range(width):
            shuffled = np.array(
                [self._shuffle(int(p), width) for p in current], dtype=np.int64
            )
            # Destination bit routed at this stage (MSB first).
            bit = width - 1 - stage
            out_ports = (shuffled & ~1) | ((perm.destinations >> bit) & 1)
            # Detect two packets demanding one port.
            claimed: dict[int, int] = {}
            for pid in range(n):
                port = int(out_ports[pid])
                if port in claimed:
                    conflicts.append(
                        SwitchConflict(
                            stage=stage,
                            switch=port >> 1,
                            output_port=port & 1,
                            packets=(claimed[port], pid),
                        )
                    )
                else:
                    claimed[port] = pid
            current = out_ports
            positions[stage + 1] = current
        return OmegaTrace(positions=positions, conflicts=tuple(conflicts))

    def is_admissible(self, perm: Permutation) -> bool:
        """True when ``perm`` passes in one conflict-free pass.

        Lawrie's criterion, evaluated by direct routing.  When True, the
        trace's final row equals the destination array.
        """
        trace = self.route(perm)
        if trace.conflicts:
            return False
        return bool(np.array_equal(trace.positions[-1], perm.destinations))

    def passes_required(self, perm: Permutation) -> int:
        """Greedy multi-pass cost of realizing ``perm``.

        Repeatedly admits a maximal conflict-free subset of the outstanding
        packets (in packet order) and counts passes — the standard way an
        input-buffered Omega serializes an inadmissible permutation.
        """
        if perm.n != self._n:
            raise ValueError(
                f"permutation on {perm.n} points, network has {self._n} ports"
            )
        n, width = self._n, self._width
        outstanding = [pid for pid in range(n) if True]
        passes = 0
        while outstanding:
            passes += 1
            admitted: list[int] = []
            # Port claims per stage for this pass.
            claims: list[set[int]] = [set() for _ in range(width)]
            for pid in outstanding:
                pos = pid
                path = []
                ok = True
                for stage in range(width):
                    pos = self._shuffle(pos, width)
                    bit = width - 1 - stage
                    pos = (pos & ~1) | ((perm[pid] >> bit) & 1)
                    if pos in claims[stage]:
                        ok = False
                        break
                    path.append(pos)
                if ok:
                    for stage, port in enumerate(path):
                        claims[stage].add(port)
                    admitted.append(pid)
            outstanding = [pid for pid in outstanding if pid not in set(admitted)]
            if not admitted:  # pragma: no cover - greedy always admits >= 1
                raise RuntimeError("no packet admitted; routing is stuck")
        return passes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OmegaNetwork(num_ports={self._n})"
