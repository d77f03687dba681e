"""Shared fixtures (small instances of every topology, a seeded RNG) and
the hypothesis profiles.

Profiles are registered here — once, centrally — so the active profile is
selected by the ``HYPOTHESIS_PROFILE`` environment variable instead of
being overridden by whichever test module imported last:

* ``repro`` (default) — hypothesis defaults minus the deadline, which
  misfires on shared CI runners;
* ``ci`` — the pinned profile the CI fuzz job runs under: derandomized
  (fixed seed, no flaky example drift between runs), bounded example
  counts, no deadline, and verbose failure blobs for reproduction.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import Phase, settings

from repro.networks import Hypercube, Hypermesh, Hypermesh2D, Mesh, Mesh2D, Torus, Torus2D

settings.register_profile("repro", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=50,
    print_blob=True,
    # No shrink phase in CI: a pinned-seed failure is already reproducible,
    # and shrinking is where the wall-clock variance lives.
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))

# The certifier's differential helper lives beside the scalar oracle, not in
# a test module; rewrite its asserts too, so they report (and survive -O).
pytest.register_assert_rewrite("bounds.scalar_oracle")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def mesh4() -> Mesh2D:
    return Mesh2D(4)


@pytest.fixture
def torus4() -> Torus2D:
    return Torus2D(4)


@pytest.fixture
def cube4() -> Hypercube:
    return Hypercube(4)


@pytest.fixture
def hm4() -> Hypermesh2D:
    return Hypermesh2D(4)


@pytest.fixture(
    params=[
        Mesh2D(4),
        Torus2D(4),
        Hypercube(4),
        Hypermesh2D(4),
        Mesh((2, 3)),
        Torus((3, 3)),
        Hypermesh(3, 2),
        Hypermesh(2, 3),
    ],
    ids=lambda t: f"{type(t).__name__}-{t.num_nodes}",
)
def any_topology(request):
    """A representative zoo of small topologies."""
    return request.param
