"""Execute the paper pipeline: campaign out, rendered artifacts in.

:func:`run_paper` expands the selected sections into one campaign
(:func:`~repro.paper.sections.paper_campaign`), executes it through
:func:`repro.campaign.run_campaign` with a content-addressed
:class:`~repro.campaign.store.ResultStore` — so a rerun serves every task
from the store and a killed run resumes — renders each section's payloads
into :class:`~repro.paper.sections.Table`/:class:`Figure` artifacts, and
writes them under ``results/paper/``::

    results/paper/
      MANIFEST.json                    deterministic index of everything
      <section>/tables/<name>.json     machine-readable (golden-checked)
      <section>/tables/<name>.md       the same cells as markdown
      <section>/figures/<name>.txt     ASCII figures
      golden/<profile>/...             checked-in goldens (never touched here)

The layout is deterministic: no timestamps or host measurements are
written, so regenerating on an unchanged tree is a no-op diff-wise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..campaign import CampaignResult, ResultStore, run_campaign
from ..campaign.metrics import TaskRecord
from .golden import GOLDEN_DIRNAME
from .sections import (
    PaperProfile,
    SectionArtifacts,
    SectionSpec,
    paper_campaign,
    resolve_profile,
    resolve_sections,
)

__all__ = ["PaperRunResult", "run_paper", "write_artifacts"]

DEFAULT_ROOT = "results/paper"
DEFAULT_STORE_ROOT = "results/campaigns"


@dataclass
class PaperRunResult:
    """Everything one ``repro paper`` invocation produced."""

    profile: PaperProfile
    sections: list[SectionSpec]
    campaign: CampaignResult | None  # None when only local sections ran
    artifacts: dict[str, SectionArtifacts] = field(default_factory=dict)
    failed_sections: dict[str, list[str]] = field(default_factory=dict)
    written: list[Path] = field(default_factory=list)
    root: Path = Path(DEFAULT_ROOT)

    @property
    def ok(self) -> bool:
        return not self.failed_sections


def run_paper(
    sections: Sequence[str] | None = None,
    profile: str | PaperProfile = "full",
    *,
    root: str | Path = DEFAULT_ROOT,
    store_root: str | Path | None = DEFAULT_STORE_ROOT,
    workers: int = 1,
    force: bool = False,
    write: bool = True,
    progress: Callable[[TaskRecord], None] | None = None,
) -> PaperRunResult:
    """Regenerate the selected paper sections (all of them by default).

    The campaign store under ``store_root`` makes reruns near-free: every
    unchanged task is a cache hit (``CampaignResult.summary.cache_hits``),
    and the routed sections' tasks route through the disk plan cache, so
    even a ``force=True`` re-execution replays warm plans instead of
    re-planning.  ``store_root=None`` disables the store (pure in-memory).
    """
    prof = resolve_profile(profile)
    specs = resolve_sections(sections)
    result = PaperRunResult(profile=prof, sections=specs, campaign=None,
                            root=Path(root))

    spec_names = [s.section for s in specs]
    campaign_spec = paper_campaign(prof, spec_names)
    campaign = None
    if campaign_spec.tasks:
        store = (
            ResultStore.for_campaign(campaign_spec.name, store_root)
            if store_root is not None
            else None
        )
        campaign = run_campaign(
            campaign_spec,
            store,
            workers=workers,
            reuse=not force,
            progress=progress,
        )
    result.campaign = campaign
    by_hash: dict[str, TaskRecord] = (
        {r.task_hash: r for r in campaign.records} if campaign else {}
    )

    for spec in specs:
        tasks = spec.tasks(prof)
        records = [by_hash.get(t.task_hash) for t in tasks]
        bad = [
            t.label
            for t, r in zip(tasks, records)
            if r is None or not r.ok
        ]
        if bad:
            result.failed_sections[spec.section] = bad
            continue
        payloads = [r.payload for r in records]  # type: ignore[union-attr]
        result.artifacts[spec.section] = spec.render(payloads, prof)

    if write:
        result.written = write_artifacts(result.artifacts, root)
    return result


def _clear_rendered(directory: Path) -> None:
    """Drop previously rendered files so the tree mirrors the registry."""
    if not directory.is_dir():
        return
    for path in directory.iterdir():
        if path.is_file() and path.suffix in (".json", ".md", ".txt"):
            path.unlink()


def write_artifacts(
    artifacts: Mapping[str, SectionArtifacts], root: str | Path
) -> list[Path]:
    """Write every rendered artifact under ``root`` and return the paths.

    Each written section's ``tables/``/``figures`` directories are cleared
    of previously rendered files first; the ``golden/`` subtree is never
    touched (it is not a section id).
    """
    root = Path(root)
    written: list[Path] = []
    manifest: dict[str, dict] = {}
    for section, arts in artifacts.items():
        if section == GOLDEN_DIRNAME:  # defensive: never clobber goldens
            raise ValueError("section id 'golden' is reserved")
        tables_dir = root / section / "tables"
        figures_dir = root / section / "figures"
        _clear_rendered(tables_dir)
        _clear_rendered(figures_dir)
        entry: dict[str, list[str]] = {"tables": [], "figures": []}
        if arts.tables:
            tables_dir.mkdir(parents=True, exist_ok=True)
        for table in arts.tables:
            json_path = tables_dir / f"{table.name}.json"
            json_path.write_text(
                json.dumps(table.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            md_path = tables_dir / f"{table.name}.md"
            md_path.write_text(table.to_markdown())
            written.extend((json_path, md_path))
            entry["tables"].append(table.name)
        if arts.figures:
            figures_dir.mkdir(parents=True, exist_ok=True)
        for figure in arts.figures:
            path = figures_dir / f"{figure.name}.txt"
            path.write_text(figure.render())
            written.append(path)
            entry["figures"].append(figure.name)
        manifest[section] = entry
    manifest_path = root / "MANIFEST.json"
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    existing: dict = {}
    if manifest_path.exists():
        try:
            existing = json.loads(manifest_path.read_text())
        except json.JSONDecodeError:
            existing = {}
    sections_index = dict(existing.get("sections", {}))
    sections_index.update(manifest)
    manifest_path.write_text(json.dumps(
        {"schema": 1, "sections": dict(sorted(sections_index.items()))},
        indent=2,
    ) + "\n")
    written.append(manifest_path)
    return written
