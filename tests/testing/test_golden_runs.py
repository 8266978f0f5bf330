"""Golden runs: 600 seeded scenarios whose histories must not move.

``tests/traces/golden-runs.json`` holds, for every cell of seeds 0-49 x
{queue, stack, heap} x {sync, async} x {default, heavy churn}, the
``history_digest`` and the op count of
``run_scenario(Scenario.from_seed(seed, structure, runner, churn))``.
Beside the grid sits one named group of cells from beyond it,
``anchor-transfer``: the six cells of seeds 0-1499 in which a
transferred anchor fires while a batch of its own is still in flight
(``Node.timeout``'s inflight-anchor gate) — a path no grid cell runs.
The digest covers every record's value, result and completion flags, and
both engines draw their delivery order from the seed per message sent —
so a refactor that adds, drops or reorders one ``send`` anywhere in
``repro.core`` moves some cell.  A change that is *meant* to keep the
protocol's behaviour passes this file unchanged; a change that is meant
to alter it re-records the table on purpose::

    PYTHONPATH=src python tests/testing/test_golden_runs.py --record

Nothing else writes the table (the fuzzer does not know it exists).
``--check`` runs every cell, prints how many cells of each group moved
and every cell whose run now ends in a violation, and exits 1 if any
cell moved; the CI ``fuzz`` job runs it before its long sweeps.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

import pytest

from repro.testing.scenario import (
    CHURN_PROFILES,
    RUNNERS,
    STRUCTURES,
    Scenario,
    history_digest,
    run_scenario,
)

TABLE_PATH = Path(__file__).resolve().parents[1] / "traces" / "golden-runs.json"
SEEDS = range(50)
GROUPS = [
    (structure, runner, churn)
    for structure in STRUCTURES
    for runner in RUNNERS
    for churn in CHURN_PROFILES
]


#: found by counting ``_fire`` calls entered with a batch in flight over
#: seeds 0-1499 x every structure x both runners x both churn profiles
ANCHOR_TRANSFER = [
    (517, "heap", "async", "heavy"),
    (969, "heap", "async", "heavy"),
    (980, "stack", "async", "heavy"),
    (1131, "queue", "async", "heavy"),
    (1131, "stack", "async", "heavy"),
    (1131, "heap", "async", "heavy"),
]


def cell_key(seed: int, structure: str, runner: str, churn: str) -> str:
    return f"{seed}/{structure}/{runner}/{churn}"


def run_cell(seed: int, structure: str, runner: str, churn: str) -> list:
    """``[digest, op count]`` of one scenario, as stored in the table."""
    return table_row(run_scenario(Scenario.from_seed(seed, structure, runner, churn)))


def table_row(result) -> list:
    return [history_digest(result.records), len(result.records)]


def divergence(cell: tuple, want: list) -> str | None:
    """Name ``cell`` and what it did, if its run left the table."""
    got = run_cell(*cell)
    if got == want:
        return None
    seed, structure, runner, churn = cell
    return (
        f"(seed={seed}, structure={structure}, runner={runner}, "
        f"churn={churn}): recorded {want}, got {got}"
    )


def first_divergence(table: dict, group: tuple) -> str | None:
    """Name the first seed of ``group`` whose run left the table."""
    want = table["/".join(group)]
    diverged = (divergence((seed, *group), want[seed]) for seed in SEEDS)
    return next(filter(None, diverged), None)


def load_table() -> dict:
    return json.loads(TABLE_PATH.read_text())


def recorded_cells(table: dict):
    """``(group name, cell, recorded row)`` for every cell of ``table``."""
    for group in GROUPS:
        rows = table["/".join(group)]
        for seed in SEEDS:
            yield "/".join(group), (seed, *group), rows[seed]
    for cell in ANCHOR_TRANSFER:
        yield "anchor-transfer", cell, table["anchor-transfer"][cell_key(*cell)]


def check(table: dict) -> int:
    """Run every cell; print the moved count per group and each cell
    that ends in a violation.  0 when no cell moved, else 1."""
    moved = collections.defaultdict(list)
    n_cells = 0
    for name, cell, want in recorded_cells(table):
        n_cells += 1
        result = run_scenario(Scenario.from_seed(*cell))
        if table_row(result) != want:
            moved[name].append(cell_key(*cell))
        if result.violation is not None:
            violation = result.violation
            print(f"violation {cell_key(*cell)}: {violation.kind} "
                  f"({violation.clause}): {violation.message}")
    for name, keys in moved.items():
        print(f"{name}: {len(keys)} moved ({', '.join(keys)})")
    if moved:
        print(f"{sum(map(len, moved.values()))} of {n_cells} golden runs moved")
        return 1
    print(f"{n_cells} golden runs match {TABLE_PATH.name}")
    return 0


def test_the_table_covers_every_cell():
    table = load_table()
    extra = table.pop("anchor-transfer")
    assert sorted(table) == sorted("/".join(group) for group in GROUPS)
    assert all(len(rows) == len(SEEDS) for rows in table.values())
    assert list(extra) == [cell_key(*cell) for cell in ANCHOR_TRANSFER]


@pytest.mark.parametrize("group", GROUPS, ids="/".join)
def test_histories_match_the_recorded_table(group):
    diverged = first_divergence(load_table(), group)
    assert diverged is None, f"first diverging golden run {diverged}"


@pytest.mark.parametrize("cell", ANCHOR_TRANSFER, ids=lambda cell: cell_key(*cell))
def test_anchor_transfer_histories_match_the_recorded_table(cell):
    diverged = divergence(cell, load_table()["anchor-transfer"][cell_key(*cell)])
    assert diverged is None, f"diverging golden run {diverged}"


def main(argv: list[str]) -> int:
    n_cells = len(GROUPS) * len(SEEDS) + len(ANCHOR_TRANSFER)
    if argv == ["--record"]:
        # one row per line, so a re-record diffs cell by cell
        groups = [
            f'"{"/".join(group)}": [\n'
            + ",\n".join(json.dumps(run_cell(seed, *group)) for seed in SEEDS)
            + "\n]"
            for group in GROUPS
        ]
        groups.append(
            '"anchor-transfer": {\n'
            + ",\n".join(
                f"{json.dumps(cell_key(*cell))}: {json.dumps(run_cell(*cell))}"
                for cell in ANCHOR_TRANSFER
            )
            + "\n}"
        )
        TABLE_PATH.write_text("{\n" + ",\n".join(groups) + "\n}\n")
        print(f"recorded {n_cells} golden runs -> {TABLE_PATH}")
        return 0
    if argv == ["--check"]:
        return check(load_table())
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
