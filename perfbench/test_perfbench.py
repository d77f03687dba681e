"""The benchmark's own tests: a tiny-size run of every workload finishes in
seconds and prints every metric ``BENCHMARK.json`` names, with its unit.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["route-batch", "serve-zipf",
                                      "paper-full"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_checkout_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "route-batch", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/repro" in proc.stderr


def test_tail_percentile_keeps_ten_samples_beyond():
    sys.path.insert(0, str(HERE))
    from common import tail_percentile

    assert tail_percentile(1000) == 99
    assert tail_percentile(360) == 95
    assert tail_percentile(100) == 90
    assert tail_percentile(12) == 50


def test_speed_sampler_scales_to_reference_speed():
    import time

    sys.path.insert(0, str(HERE))
    from hostspeed import KERNEL_REF_S, SpeedSampler, factor_of

    assert factor_of([KERNEL_REF_S / 2] * 3) == pytest.approx(2.0)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert len(sampler.samples) >= 5
    assert sampler.proc.returncode == 0
    assert 0.1 < sampler.factor(start, end) < 10
    # A window shorter than a period takes the nearest kernel.
    assert sampler.factor(end, end) > 0
