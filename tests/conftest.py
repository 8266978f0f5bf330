"""Shared fixtures and helpers for the Skueue test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.cluster import SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.core.structures import get_structure


def drive_random(
    cluster,
    rounds: int,
    op_probability: float = 0.3,
    insert_probability: float = 0.5,
    seed: int = 0,
    join_probability: float = 0.0,
    leave_probability: float = 0.0,
):
    """Random mixed workload with optional churn; returns the rng used."""
    rng = random.Random(f"drive-{seed}")
    for r in range(rounds):
        if join_probability and rng.random() < join_probability:
            cluster.join()
        if leave_probability and rng.random() < leave_probability:
            candidates = cluster.live_pids()
            if candidates:
                pid = rng.choice(candidates)
                if cluster.can_leave(pid, margin=2):
                    cluster.leave(pid)
        if rng.random() < op_probability:
            pid = rng.choice(cluster.live_pids())
            if cluster.can_submit(pid):
                if rng.random() < insert_probability:
                    cluster.submit(pid, INSERT, f"item-{r}")
                else:
                    cluster.submit(pid, REMOVE)
        cluster.step()
    return rng


def run_uniform_workload(session, ops: int = 40, seed: int = 0):
    """One workload script for *every* backend of the handle API.

    Mixed enqueues/dequeues via handles, batch submission, drain, and a
    Definition-1 check over the collected history.  Returns
    ``(handles, records)``.  Used unmodified against sync, async, and
    tcp sessions — that portability is itself the property under test.
    """
    rng = random.Random(f"uniform-{seed}")
    handles = []
    enqueued = 0
    for i in range(ops // 2):
        if rng.random() < 0.6 or enqueued == 0:
            handles.append(session.enqueue(f"item-{i}"))
            enqueued += 1
        else:
            handles.append(session.dequeue())
    # second half as one pipelined batch
    batch = []
    for i in range(ops // 2, ops):
        if rng.random() < 0.6:
            batch.append(("enqueue", f"item-{i}"))
            enqueued += 1
        else:
            batch.append(("dequeue",))
    handles.extend(session.submit_batch(batch))
    session.drain()
    assert all(handle.done() for handle in handles)
    for handle in handles:
        result = handle.result()
        assert result is not None
        assert session.result_of(handle.req_id) == result
    records = session.verify()
    assert len(records) >= len(handles)
    return handles, records


def run_priority_workload(session, ops: int = 40, seed: int = 0,
                          n_priorities: int = 3):
    """One mixed-priority heap workload for *every* backend.

    The acceptance scenario of the Skeap PR: inserts spread over
    priority classes, interleaved delete-mins, a pipelined batch tail, a
    drain, and the Definition-1 priority check over the collected
    history — run unmodified against sync, async and tcp sessions.
    Returns ``(handles, records)``.
    """
    rng = random.Random(f"priority-{seed}")
    handles = []
    inserted = 0
    for i in range(ops // 2):
        if rng.random() < 0.6 or inserted == 0:
            handles.append(
                session.insert(f"job-{i}", priority=rng.randrange(n_priorities))
            )
            inserted += 1
        else:
            handles.append(session.delete_min())
    # second half as one pipelined batch
    batch = []
    for i in range(ops // 2, ops):
        if rng.random() < 0.6:
            batch.append(
                ("insert", f"job-{i}", None, rng.randrange(n_priorities))
            )
            inserted += 1
        else:
            batch.append(("delete_min",))
    handles.extend(session.submit_batch(batch))
    session.drain()
    assert all(handle.done() for handle in handles)
    for handle in handles:
        result = handle.result()
        assert result is not None
        assert session.result_of(handle.req_id) == result
    records = session.verify()
    assert len(records) >= len(handles)
    return handles, records


def verify(cluster) -> None:
    """Check the full history against Definition 1."""
    get_structure(cluster.structure).check_history(cluster.records)


def assert_topology_invariants(cluster) -> None:
    """Ring closure, sortedness, unique anchor at the global minimum."""
    cycle = cluster.cycle_vids()
    actors = cluster.runtime.actors
    labels = [actors[v].label for v in cycle]
    anchor_vid = cluster.anchor.vid
    assert cycle[0] == anchor_vid
    assert labels == sorted(labels), "cycle is not sorted by label"
    # pred/succ pointers are mutually consistent
    for v in cycle:
        node = actors[v]
        assert actors[node.succ_vid].pred_vid == v
    # anchor is the global minimum label
    assert anchor_vid == min(cycle, key=lambda v: actors[v].label)


@pytest.fixture
def small_queue():
    with SkueueCluster(n_processes=8, seed=42) as cluster:
        yield cluster


@pytest.fixture
def small_stack():
    with SkueueCluster(n_processes=8, structure="stack", seed=42) as cluster:
        yield cluster


@pytest.fixture
def small_heap():
    with SkueueCluster(n_processes=8, structure="heap", seed=42, n_priorities=3) as cluster:
        yield cluster
