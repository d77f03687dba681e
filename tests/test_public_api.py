"""Public-API hygiene: exports resolve, carry docstrings, and stay in sync
with the documentation."""

import importlib
import inspect
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.networks",
    "repro.hardware",
    "repro.routing",
    "repro.sim",
    "repro.core",
    "repro.fft",
    "repro.sort",
    "repro.algos",
    "repro.models",
    "repro.viz",
    "repro.service",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item}"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    missing = []
    for item in getattr(module, "__all__", []):
        obj = getattr(module, item)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                missing.append(item)
    assert not missing, f"{name}: undocumented public items {missing}"


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_api_doc_covers_every_package():
    api_md = (Path(__file__).resolve().parents[1] / "docs" / "API.md").read_text()
    for name in PACKAGES:
        if name == "repro":
            continue
        assert name.split(".", 1)[1].split(".")[0] in api_md, f"{name} absent from docs/API.md"


def test_headline_symbols_importable_from_top_level():
    from repro import (  # noqa: F401
        GAAS_1992,
        Hypercube,
        Hypermesh2D,
        Mesh2D,
        Permutation,
        SimdMachine,
        bit_reversal_schedule,
        blocked_fft,
        fft_step_counts,
        map_fft,
        normalize,
        parallel_fft,
        route_permutation,
        route_permutation_3step,
    )
