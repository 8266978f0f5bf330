#!/usr/bin/env python3
"""Elastic membership: processes join and leave while the queue is hot.

Shows Section IV end to end: lazy joins through responsible nodes,
leaves via replacements, update phases splicing the De Bruijn ring, and
— crucially — not a single request or element lost along the way.

Run:  python examples/churn.py
"""

import random

from repro import SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.verify import check_queue_history


def main() -> None:
    cluster = SkueueCluster(n_processes=10, seed=99)
    rng = random.Random(99)
    print(f"start: {len(cluster.live_pids())} processes")

    events = []
    for round_number in range(600):
        if rng.random() < 0.01:
            new_pid = cluster.join()
            events.append(f"round {cluster.runtime.round}: process {new_pid} joining")
        if rng.random() < 0.008:
            candidates = cluster.live_pids()
            if len(candidates) > 4:
                leaver = rng.choice(candidates)
                cluster.leave(leaver)
                events.append(
                    f"round {cluster.runtime.round}: process {leaver} leaving"
                )
        if rng.random() < 0.4:
            pid = rng.choice(cluster.live_pids())
            if rng.random() < 0.5:
                cluster.submit(pid, INSERT, f"item-{round_number}")
            else:
                cluster.submit(pid, REMOVE)
        cluster.step()

    cluster.run_until_settled(200_000)
    for line in events:
        print(" ", line)
    print(f"end: {len(cluster.live_pids())} processes, ring intact "
          f"({len(cluster.cycle_vids())} virtual nodes)")

    check_queue_history(cluster.records)
    print(
        f"{cluster.metrics.generated} requests all completed and verified "
        "sequentially consistent ✓"
    )
    anchor = cluster.anchor
    print(
        f"anchor now at virtual node {anchor.vid} "
        f"(first={anchor.anchor_state.first}, last={anchor.anchor_state.last})"
    )


if __name__ == "__main__":
    main()
