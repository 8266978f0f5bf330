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
* Every test id cited in README, DESIGN.md and docs/TESTING.md
  (```tests/unit/test_x.py::TestY::test_z```, or the file name alone)
  names a file, class and function that exist.
"""

from __future__ import annotations

import ast
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
# a cited test id in backticks; the id may wrap after its `::`
_TEST_ID = re.compile(r"`((?:tests/)?[\w/]*test_\w+\.py)::\s*([\w:]+)`")


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


def _test_file(cited: str) -> Path | None:
    """The test file a cited path names: as written, or a bare file name
    that one file under ``tests/`` has."""
    if cited.startswith("tests/"):
        path = REPO_ROOT / cited
        return path if path.is_file() else None
    found = list((REPO_ROOT / "tests").rglob(cited))
    return found[0] if len(found) == 1 else None


def _resolves(path: Path, names: list[str]) -> bool:
    """Whether ``names`` (class, then method; or a function) are defined
    in ``path``, each inside the one before."""
    scope = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def cited_test_ids(text: str) -> list[tuple[str, list[str]]]:
    return [(cited, names.split("::"))
            for cited, names in _TEST_ID.findall(text)]


def test_the_cited_id_pattern_reads_a_wrapped_id():
    text = ("guard `tests/integration/test_paper_shapes.py::\n"
            "test_waves_advance_on_pushed_wakes` and `test_link.py::A::b`")
    assert cited_test_ids(text) == [
        ("tests/integration/test_paper_shapes.py",
         ["test_waves_advance_on_pushed_wakes"]),
        ("test_link.py", ["A", "b"]),
    ]


@pytest.mark.parametrize(
    "document", ["README.md", "DESIGN.md", "docs/TESTING.md"])
def test_cited_test_ids_resolve(document: str):
    dangling = []
    for cited, names in cited_test_ids((REPO_ROOT / document).read_text()):
        path = _test_file(cited)
        if path is None or not _resolves(path, names):
            dangling.append(f"{cited}::{'::'.join(names)}")
    assert not dangling, f"{document} cites tests that do not exist: {dangling}"
