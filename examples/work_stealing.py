#!/usr/bin/env python3
"""Fair work stealing over Skueue (the intro's motivating application).

A group of producer processes publishes tasks into the distributed
queue; worker processes fetch them. Because the queue is sequentially
consistent and FIFO, tasks are served in the order they were made
available — fair work stealing without a central task server.

Run:  python examples/work_stealing.py
"""

import random

from repro import BOTTOM, SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.verify import check_queue_history


def main() -> None:
    n = 24
    producers = range(0, 8)
    workers = range(8, 24)
    cluster = SkueueCluster(n_processes=n, seed=21)
    rng = random.Random(21)

    # producers publish 48 tasks over time, from random processes
    published = []
    for task_id in range(48):
        producer = rng.choice(list(producers))
        cluster.submit(producer, INSERT, f"task-{task_id}")
        published.append(f"task-{task_id}")
        cluster.step(rng.randrange(4))
    cluster.run_until_done(60_000)
    print(f"{len(published)} tasks published by {len(list(producers))} producers")

    # workers steal greedily until the queue drains
    fetched: dict[int, list[str]] = {w: [] for w in workers}
    pending = []
    while True:
        for worker in workers:
            pending.append((worker, cluster.submit(worker, REMOVE)))
        cluster.run_until_done(60_000)
        done = 0
        for worker, handle in pending:
            result = cluster.result_of(handle)
            if result is not BOTTOM:
                fetched[worker].append(result)
                done += 1
        pending.clear()
        if sum(len(v) for v in fetched.values()) >= len(published):
            break

    got = [task for tasks in fetched.values() for task in tasks]
    assert sorted(got) == sorted(published), "every task served exactly once"
    busiest = max(fetched.values(), key=len)
    print(f"all tasks served exactly once; busiest worker took {len(busiest)}")

    check_queue_history(cluster.records)
    print("history verified sequentially consistent ✓")


if __name__ == "__main__":
    main()
