"""Event-driven waves: the protocol runs with no periodic TIMEOUT sweep.

The simulators poll nothing; readiness travels exclusively over
the pushed ``Runtime.wake`` edges (batch arrival, SERVE, neighbour
splices, zombie exits, A_NUDGE probes) plus each node's own
``wake_me``/``call_later``.  These tests pin the property the redesign
is for: no workload may depend on the sweep as a clock.
"""

import random

import pytest

import repro
from repro import SkueueCluster
from tests.conftest import (
    assert_topology_invariants,
    drive_random,
    run_priority_workload,
    verify,
)

@pytest.mark.parametrize("backend", ["sync", "async"])
@pytest.mark.parametrize("structure", ["queue", "stack"])
def test_uniform_workload_with_sweep_disabled(backend, structure):
    rng = random.Random(f"no-sweep-{structure}")
    with repro.connect(
        backend, structure=structure, n_processes=8, seed=11
    ) as session:
        handles = []
        inserted = 0
        for i in range(40):
            if rng.random() < 0.6 or inserted == 0:
                handles.append(session.submit("insert", f"item-{i}"))
                inserted += 1
            else:
                handles.append(session.submit("remove"))
        session.drain()
        assert all(h.done() for h in handles)
        session.verify()


@pytest.mark.parametrize("backend", ["sync", "async"])
def test_priority_workload_with_sweep_disabled(backend):
    with repro.connect(
        backend, structure="heap", n_processes=6, seed=5, n_priorities=3
    ) as session:
        run_priority_workload(session, ops=40, seed=5, n_priorities=3)


@pytest.mark.parametrize("seed", range(2))
def test_churn_with_sweep_disabled(seed):
    """JOIN/LEAVE splices rely on the new membership wake edges."""
    c = SkueueCluster(n_processes=6, seed=seed)
    drive_random(
        c, rounds=250, op_probability=0.3, seed=seed,
        join_probability=0.02, leave_probability=0.015,
    )
    c.run_until_settled(60_000)
    verify(c)
    assert_topology_invariants(c)

