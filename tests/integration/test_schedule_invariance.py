"""The simulators' schedules are pinned to the message.

A fixed-seed run on each engine, for the queue and the heap, must send
exactly the messages and take exactly the rounds it did at the commit
the constants were taken on (``55628ce``; the heap/async row was taken
at ``7fea695``, where a parent stopped reading its successor's state
to decide whether to wait for it).  A change that is
meant to touch only the TCP runtime's wave timing — or any other change
that claims "the simulators are not touched" — fails here, in tier-1,
instead of moving ``sim_paper`` in the benchmark.  A change that *means*
to alter the simulated schedule updates the constants and says so.
"""

from __future__ import annotations

import random

import pytest

from repro import SkueueCluster
from repro.core.requests import INSERT, REMOVE

N = 64
OP_ROUNDS = 120

#: (structure, runner) -> (messages, mean rounds per request, events)
#: ``events`` is ``AsyncRunner.events_processed``; the sync engine has none.
EXPECTED = {
    ("queue", "sync"): (16755, 121.37921348314607, None),
    ("queue", "async"): (16569, 147.9156427692033, 19422),
    ("heap", "sync"): (17686, 157.39495798319328, None),
    ("heap", "async"): (18244, 207.16397812395104, 23331),
}


def _drive(structure: str, runner: str):
    """Seeded mixed load with one join and one leave in the middle, so
    the membership paths that share the fire site are on the schedule."""
    rng = random.Random(f"invariance-{structure}")
    with SkueueCluster(N, seed=5, runner=runner, structure=structure) as cluster:
        for round_no in range(OP_ROUNDS):
            for _ in range(3):
                pid = rng.randrange(N)
                if not cluster.can_submit(pid):
                    continue
                if rng.random() < 0.55:
                    priority = rng.randrange(4) if structure == "heap" else 0
                    cluster.submit(pid, INSERT, round_no, priority)
                else:
                    cluster.submit(pid, REMOVE)
            if round_no == 40:
                cluster.join()
            if round_no == 70:
                cluster.leave(7)
            cluster.step()
        cluster.run_until_settled()
        metrics = cluster.metrics
        events = getattr(cluster.runtime, "events_processed", None)
        return metrics, events


@pytest.mark.parametrize("structure,runner", sorted(EXPECTED))
def test_fixed_seed_run_repeats_to_the_message(structure, runner):
    metrics, events = _drive(structure, runner)
    messages, mean_rounds, expected_events = EXPECTED[structure, runner]
    assert metrics.completed == metrics.generated > 300
    assert metrics.messages == messages
    assert metrics.mean_latency() == pytest.approx(mean_rounds, abs=1e-9)
    assert events == expected_events
    # every host-side wave counter reads zero where all actors are local
    assert metrics.counters.get("wave_remote_waits", 0) == 0
    assert metrics.counters.get("wave_remote_wait_expired", 0) == 0
