"""Benchmark-harness configuration.

The files here time the ablations, the extensions (E12, E13, E15, E17,
E18, E20, E21) and the library's hot paths, and record the BENCH_*.json
trajectories.  The paper's own tables and figures are regenerated and
golden-checked by ``repro paper`` instead (see docs/REPRODUCING.md).  Run
with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` shows the regenerated rows next to the timings; every benchmark
also asserts the values it measures, so the harness doubles as a check.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2026)


def emit(title: str, body: str) -> None:
    """Print a regenerated artifact under a clear banner."""
    print()
    print(f"---- {title} ----")
    print(body)
