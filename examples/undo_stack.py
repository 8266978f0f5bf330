#!/usr/bin/env python3
"""A distributed undo stack on Skack (Section VI).

A collaborative editor scenario: many processes push edit operations;
"undo" pops the most recent one — LIFO, sequentially consistent, with
the stack spread over the whole ring.  Also demonstrates the local
PUSH/POP annihilation: an undo issued right after an edit at the same
process is answered immediately, without any network round-trip.

Run:  python examples/undo_stack.py
"""

from repro import BOTTOM, SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.verify import check_stack_history


def main() -> None:
    cluster = SkueueCluster(n_processes=12, structure="stack", seed=55)

    # three users make edits (quiesced so the order is deterministic)
    edits = [
        (1, "insert 'hello'"),
        (5, "bold line 2"),
        (9, "delete word"),
    ]
    for pid, edit in edits:
        cluster.submit(pid, INSERT, edit)
        cluster.run_until_done()
        print(f"user {pid} edit: {edit}")

    # undo twice from a different user: most recent edits come back first
    for _ in range(2):
        handle = cluster.submit(3, REMOVE)
        cluster.run_until_done()
        print(f"undo -> {cluster.result_of(handle)!r}")

    # the instant-undo path: push+pop at the same process annihilate
    cluster.submit(7, INSERT, "typo fix")
    handle = cluster.submit(7, REMOVE)
    print(
        f"instant undo (local annihilation) -> {cluster.result_of(handle)!r} "
        f"[answered in 0 rounds, "
        f"{cluster.metrics.counters['annihilated_pairs']} pair(s) annihilated]"
    )
    cluster.run_until_done()

    # drain: one edit left, then empty
    handle = cluster.submit(0, REMOVE)
    cluster.run_until_done()
    print(f"undo -> {cluster.result_of(handle)!r}")
    handle = cluster.submit(0, REMOVE)
    cluster.run_until_done()
    assert cluster.result_of(handle) is BOTTOM
    print("undo -> ⊥ (nothing left to undo)")

    check_stack_history(cluster.records)
    print("history verified sequentially consistent (LIFO) ✓")


if __name__ == "__main__":
    main()
