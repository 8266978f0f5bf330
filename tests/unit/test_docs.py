"""Documentation enforcement: the wire catalog, the actor messages and
internal links.

Three invariants, all cheap enough for tier-1:

* ``docs/PROTOCOL.md`` documents **exactly** the frame vocabulary the
  TCP runtime emits: its per-frame headings — op and admission — are
  diffed against the authoritative registry
  (:data:`repro.net.transport.FRAME_TYPES`), which in turn is diffed
  against the ``"op"`` literals actually present in the ``repro.net``
  sources.  A frame cannot ship undocumented, and a removed frame
  cannot linger in the docs.
* Its "Actor messages" table is :data:`repro.core.actions.CATALOG`,
  row for row.
* Internal markdown links in README/DESIGN/PROTOCOL resolve — no
  dangling cross-references (CI runs this in a dedicated docs job).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.core.actions import CATALOG
from repro.net.transport import FRAME_TYPES

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
PROTOCOL_MD = REPO_ROOT / "docs" / "PROTOCOL.md"
NET_SOURCES = sorted((REPO_ROOT / "src" / "repro" / "net").glob("*.py"))

# one `#### `op` · admission` heading per documented frame
_HEADING = re.compile(r"^#### `([a-z_]+)` · (\S+)\s*$", re.MULTILINE)
# one `| code | `A_NAME` | direction | routed | tree batch | meaning |` row
# per actor message
_ACTION_ROW = re.compile(
    r"^\| (\d+) \| `(A_[A-Z_]+)` \| ([^|]+?) \| ([a-z]*) ?\| (yes)? ?\| "
    r"([^|]+?) \|$",
    re.MULTILINE,
)
# a frame emission in code: {"op": "x", ...}
_EMISSION = re.compile(r'"op":\s*"([a-z_]+)"')
# markdown links; external schemes are skipped below
_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


class TestFrameCatalog:
    def test_protocol_md_matches_the_frame_registry(self):
        documented = dict(_HEADING.findall(PROTOCOL_MD.read_text()))
        registered = {op: spec.admission for op, spec in FRAME_TYPES.items()}
        assert documented == registered, (
            f"docs/PROTOCOL.md out of sync with transport.FRAME_TYPES: "
            f"undocumented={sorted(registered.items() - documented.items())}, "
            f"stale={sorted(documented.items() - registered.items())}"
        )

    def test_every_emitted_frame_is_registered(self):
        emitted: dict[str, list[str]] = {}
        for source in NET_SOURCES:
            for op in _EMISSION.findall(source.read_text()):
                emitted.setdefault(op, []).append(source.name)
        unregistered = {
            op: files for op, files in emitted.items() if op not in FRAME_TYPES
        }
        assert not unregistered, (
            f"frames emitted but missing from transport.FRAME_TYPES "
            f"(and hence docs/PROTOCOL.md): {unregistered}"
        )

    def test_no_dead_registry_entries(self):
        emitted = set()
        for source in NET_SOURCES:
            emitted.update(_EMISSION.findall(source.read_text()))
        dead = set(FRAME_TYPES) - emitted
        assert not dead, (
            f"FRAME_TYPES registers frames nothing emits any more: "
            f"{sorted(dead)}"
        )

    def test_registry_entries_have_summaries(self):
        for op, spec in FRAME_TYPES.items():
            assert " -> " in spec.summary or " <-> " in spec.summary, op
            assert ": " in spec.summary, op


def test_protocol_md_actor_messages_match_the_catalog():
    documented = _ACTION_ROW.findall(PROTOCOL_MD.read_text())
    cataloged = []
    for spec in CATALOG:
        direction, meaning = spec.summary.split(": ", 1)
        cataloged.append((str(spec.code), spec.name, direction,
                          spec.routed or "", "yes" if spec.tree_batch else "",
                          meaning))
    assert documented == cataloged, (
        "docs/PROTOCOL.md \"Actor messages\" out of sync with "
        "repro.core.actions.CATALOG"
    )


@pytest.mark.parametrize(
    "document",
    ["README.md", "DESIGN.md", "ROADMAP.md", "docs/PROTOCOL.md",
     "docs/TESTING.md"],
)
def test_internal_links_resolve(document: str):
    path = REPO_ROOT / document
    dangling = []
    for target in _MD_LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            dangling.append(target)
    assert not dangling, f"{document} has dangling internal links: {dangling}"
