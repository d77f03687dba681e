"""Shared pieces of the benchmark: paths, statistics, spans, run records.

Nothing here imports ``repro``; the workloads do that after
:func:`setup_paths` has put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs from: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for temporary working directories, plan roots and span
#: files.  Inside the checkout (the benchmark writes nowhere else) and
#: listed in the root ``.gitignore``.
SCRATCH = ROOT / ".perfbench"
#: Directories the isolation guard ignores when it compares the checkout
#: before and after a run: the benchmark's own scratch space and the
#: interpreter's byte-code caches.
SNAPSHOT_SKIP = {".perfbench", "__pycache__", ".bench_build", ".pytest_cache",
                 ".hypothesis", ".git"}

#: Seed of the reference inputs whose result digests are pinned in
#: ``golden.json``.
DEFAULT_SEED = 0


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no ``src/repro`` next to it)."""


def setup_paths() -> None:
    """Make the checkout's ``repro`` package importable, or raise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no src/repro package under {ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env() -> dict:
    """Environment for processes the benchmark starts: the checkout's
    ``src`` on the import path and unbuffered output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# --------------------------------------------------------------- statistics
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 100]);
    ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return ordered[lo] if pos == lo else float("inf")
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def tail_percentile(count: int) -> int:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it (p50 when there are fewer than twenty samples)."""
    for q in (99, 95, 90, 75):
        if count * (100 - q) / 100 >= 10:
            return q
    return 50


def latency_summary(seconds) -> dict:
    """Median, mean and tail of a list of durations, in milliseconds."""
    ms = [s * 1e3 for s in seconds]
    if not ms:
        return {"count": 0}
    q = tail_percentile(len(ms))
    return {
        "count": len(ms),
        "p50_ms": median(ms),
        f"p{q}_ms": percentile(ms, q),
        "mean_ms": sum(ms) / len(ms),
        "max_ms": max(ms),
    }


def digest(rows) -> str:
    """Short SHA-256 over a JSON rendering of ``rows``."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def within_budget(t_start: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, as long as the mean of the ``done``
    so far, still ends within ``seconds`` of ``t_start``."""
    elapsed = time.perf_counter() - t_start
    return elapsed + elapsed / done <= seconds


def self_peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


# -------------------------------------------------------------------- spans
class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span has a name, start, end, the span that caused it (per thread)
    and free-form attributes.  :meth:`rollup` gives per-name call counts,
    total time and self time (total minus the time of child spans).
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": sid, "parent": parent, "name": name,
                                   "start": start, "end": end, **attrs})

    def adopt(self, spans: list[dict]) -> None:
        """Take spans another process recorded (ids renumbered so they stay
        unique; ``perf_counter`` is the system-wide monotonic clock)."""
        with self._lock:
            base = self._next
            self._next += len(spans)
            for span in spans:
                parent = span["parent"]
                self.spans.append({**span, "id": span["id"] + base,
                                   "parent": None if parent is None
                                   else parent + base})

    def rollup(self) -> dict[str, dict]:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time.get(s["id"], 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """The untraced run: spans cost one attribute lookup and a no-op."""

    enabled = False

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


# ------------------------------------------------------------- run records
@dataclass
class WorkloadResult:
    """What one measured run of a workload produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: ``(check name, passed, detail)`` for every correctness check.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Per-layer counts seen by the workload (zero for bypassed layers).
    counts: dict[str, int] = field(default_factory=dict)
    #: Everything else worth keeping: phase tallies, tails, digests.
    record: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def mkscratch(prefix: str) -> Path:
    """A fresh, empty directory under the scratch space."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def rmscratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def snapshot() -> dict[str, tuple[int, int]]:
    """``relative path -> (size, mtime_ns)`` for every checkout file outside
    the benchmark's scratch space and byte-code caches."""
    files: dict[str, tuple[int, int]] = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SNAPSHOT_SKIP]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            files[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def snapshot_diff(before: dict, after: dict) -> list[str]:
    """Paths added, removed or rewritten between two :func:`snapshot`\\ s."""
    changed = [p for p in after if before.get(p) != after[p]]
    removed = [p for p in before if p not in after]
    return sorted(changed + removed)
