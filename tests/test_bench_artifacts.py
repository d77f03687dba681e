"""Schema validation for the checked-in ``BENCH_*.json`` artifacts.

The benchmark artifacts are the repo's performance claims of record, so
their shape is enforced like code: required top-level keys per artifact,
``equivalent: true`` on every row that claims bit-identity, no null
timings outside ``gpu_available: false`` rows, every engine/faults
timing backed by at least ``MIN_SAMPLES`` raw samples with their median
and spread, and every engine/faults row carries ``certified: true`` with
``bound <= steps``.
"""

import json
import math
from pathlib import Path
from statistics import median

import pytest

REPO = Path(__file__).resolve().parents[1]
ARTIFACTS = sorted(REPO.glob("BENCH_*.json"))

#: Required top-level keys per artifact.  Every artifact must additionally
#: carry ``benchmark`` (the recorder's provenance string).
REQUIRED_KEYS = {
    "BENCH_campaign.json": {"summary", "rows", "spec_hash", "meta"},
    "BENCH_engine.json": {
        "engine", "baseline", "equivalence", "timing", "sizes", "rows",
    },
    "BENCH_faults.json": {
        "engine", "baseline", "equivalence", "timing", "sizes", "rows",
        "unroutable_cells",
    },
    "BENCH_plancache.json": {"engine", "baseline", "equivalence", "sizes", "rows"},
    "BENCH_service.json": {
        "engine", "baseline", "job", "loads", "warm_speedup_p50",
        "coalescing", "failures",
    },
}

#: Row keys every routable row of the two engine-layer artifacts must have.
ENGINE_ROW_KEYS = {
    "topology", "n", "workload", "packets", "steps", "total_hops",
    "engine_seconds", "engine_samples", "engine_spread",
    "seed_engine_seconds", "seed_samples", "seed_spread", "speedup",
    "equivalent", "bound", "bound_ratio", "bound_kind", "certified",
}
FAULTS_ROW_KEYS = {
    "topology", "n", "axis", "amount", "unroutable", "steps",
    "total_hops", "delivered", "dropped", "retried",
    "route_seconds", "route_samples", "route_spread",
    "oracle_seconds", "oracle_samples", "oracle_spread",
    "speedup_vs_oracle", "equivalent", "steps_vs_fault_free",
    "hops_vs_fault_free", "bound", "bound_ratio", "bound_kind", "certified",
}

#: Each timed side of an engine/faults row: (median key, samples key,
#: spread key).
ENGINE_TIMINGS = (
    ("engine_seconds", "engine_samples", "engine_spread"),
    ("seed_engine_seconds", "seed_samples", "seed_spread"),
)
FAULTS_TIMINGS = (
    ("route_seconds", "route_samples", "route_spread"),
    ("oracle_seconds", "oracle_samples", "oracle_spread"),
)

#: Fewest raw samples a recorded timing may rest on, at every size.
MIN_SAMPLES = 3


def _load(name):
    path = REPO / name
    if not path.exists():
        pytest.skip(f"{name} not present in this checkout")
    return json.loads(path.read_text())


def _timing_values(obj, path=""):
    """Yield every (json path, value) whose key looks like a timing."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            here = f"{path}.{k}" if path else k
            if isinstance(v, (dict, list)):
                yield from _timing_values(v, here)
            elif k.endswith("_seconds") or k.endswith("_ns"):
                yield here, v
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _timing_values(v, f"{path}[{i}]")


def test_every_artifact_is_tracked():
    """Each checked-in BENCH artifact has a required-keys contract here —
    a new artifact must register its schema, not ride along unchecked."""
    names = {p.name for p in ARTIFACTS}
    assert names == set(REQUIRED_KEYS), (
        "artifact set drifted from the schema registry: "
        f"{sorted(names ^ set(REQUIRED_KEYS))}"
    )


@pytest.mark.parametrize("name", sorted(REQUIRED_KEYS))
def test_required_keys_present(name):
    data = _load(name)
    assert "benchmark" in data, f"{name} lost its provenance string"
    missing = REQUIRED_KEYS[name] - set(data)
    assert not missing, f"{name} missing required keys: {sorted(missing)}"


@pytest.mark.parametrize("name", sorted(REQUIRED_KEYS))
def test_no_null_timings_outside_gpu_unavailable_rows(name):
    """A null timing is only legal where the row (or its enclosing block)
    says ``gpu_available: false`` — the cupy backend is best-effort, every
    other timing must be a real measurement."""
    data = _load(name)

    def check(obj, gpu_unavailable=False, path=""):
        if isinstance(obj, dict):
            gpu_unavailable = gpu_unavailable or obj.get("gpu_available") is False
            for k, v in obj.items():
                here = f"{path}.{k}" if path else k
                if isinstance(v, (dict, list)):
                    check(v, gpu_unavailable, here)
                elif k.endswith("_seconds") or k.endswith("_ns"):
                    if v is None:
                        assert gpu_unavailable, (
                            f"{name}: null timing at {here} outside a "
                            "gpu_available: false row"
                        )
                    else:
                        assert isinstance(v, (int, float)) and math.isfinite(v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                check(v, gpu_unavailable, f"{path}[{i}]")

    check(data)


def assert_timed(row, timings):
    """Each timed side of ``row`` rests on >= MIN_SAMPLES raw samples and
    records their median and (max - min) / median spread."""
    for seconds, samples, spread in timings:
        got = row[samples]
        assert len(got) >= MIN_SAMPLES, f"too few samples in {row}"
        assert math.isclose(row[seconds], median(got), rel_tol=1e-3,
                            abs_tol=1e-6), f"{seconds} is not the median"
        want = (max(got) - min(got)) / median(got)
        assert math.isclose(row[spread], want, rel_tol=1e-2, abs_tol=2e-3), (
            f"{spread} does not match its samples in {row}"
        )


@pytest.mark.parametrize(
    "name", ["BENCH_engine.json", "BENCH_faults.json", "BENCH_plancache.json"]
)
def test_equivalence_rows_claim_and_hold(name):
    """Artifacts whose contract says 'equivalent: true' per row must have
    it on every routable row — no silently unverified cells."""
    data = _load(name)
    if name == "BENCH_plancache.json":
        return  # replay equality asserted at record time, no per-row flag
    for row in data["rows"]:
        if row.get("unroutable"):
            continue
        assert row.get("equivalent") is True, f"{name}: unverified row {row}"


def test_engine_rows_are_certified():
    data = _load("BENCH_engine.json")
    assert data["rows"], "BENCH_engine.json has no rows"
    for row in data["rows"]:
        assert set(row) == ENGINE_ROW_KEYS, f"row keys drifted: {sorted(row)}"
        assert_timed(row, ENGINE_TIMINGS)
        assert row["certified"] is True
        assert 0 <= row["bound"] <= row["steps"]
        assert row["bound_ratio"] is None or row["bound_ratio"] >= 1.0


def test_faults_rows_are_certified():
    data = _load("BENCH_faults.json")
    routable = [r for r in data["rows"] if not r["unroutable"]]
    assert routable, "BENCH_faults.json has no routable rows"
    for row in routable:
        assert set(row) == FAULTS_ROW_KEYS, f"row keys drifted: {sorted(row)}"
        assert_timed(row, FAULTS_TIMINGS)
        assert row["certified"] is True
        assert 0 <= row["bound"] <= row["steps"]
    for row in data["rows"]:
        if row["unroutable"]:
            assert "error" in row, "unroutable row must explain itself"


def test_campaign_rows_all_succeeded():
    data = _load("BENCH_campaign.json")
    for row in data["rows"]:
        assert row["status"] == "ok", f"failed campaign row: {row['task']}"
        assert row["failure_kind"] is None
