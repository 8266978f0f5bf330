"""End-to-end Skeap behaviour on the simulators.

Mirrors ``test_queue_basic``/``test_stack_basic``: semantic spot checks
(minimum class first, FIFO within a class, ⊥ on empty), randomized mixed
workloads on both runners with the Definition-1 priority check, and
membership churn under heap load.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cluster import SkueueCluster
from repro.core.requests import BOTTOM, INSERT, REMOVE
from tests.conftest import assert_topology_invariants, verify


def drive_heap_random(
    cluster,
    rounds: int,
    op_probability: float = 0.3,
    insert_probability: float = 0.55,
    seed: int = 0,
    join_probability: float = 0.0,
    leave_probability: float = 0.0,
):
    """Random mixed-priority workload with optional churn."""
    rng = random.Random(f"heap-drive-{seed}")
    n_priorities = cluster.n_priorities
    for r in range(rounds):
        if join_probability and rng.random() < join_probability:
            cluster.join()
        if leave_probability and rng.random() < leave_probability:
            candidates = cluster.live_pids()
            if len(candidates) > 3:
                cluster.leave(rng.choice(candidates))
        if rng.random() < op_probability:
            pid = rng.choice(cluster.live_pids())
            if rng.random() < insert_probability:
                cluster.submit(pid, INSERT, f"item-{r}", priority=rng.randrange(n_priorities))
            else:
                cluster.submit(pid, REMOVE)
        cluster.step()
    return rng


class TestHeapSemantics:
    def test_lowest_class_served_first(self, small_heap):
        heap = small_heap
        heap.submit(0, INSERT, "bulk", priority=2)
        heap.submit(1, INSERT, "normal", priority=1)
        heap.run_until_done()
        heap.submit(2, INSERT, "urgent", priority=0)
        heap.run_until_done()
        order = []
        for pid in (3, 4, 5):
            req = heap.submit(pid, REMOVE)
            heap.run_until_done()
            order.append(heap.result_of(req))
        assert order == ["urgent", "normal", "bulk"]
        verify(heap)

    def test_fifo_within_a_class(self, small_heap):
        heap = small_heap
        for i in range(4):
            heap.submit(0, INSERT, f"job-{i}", priority=1)  # one pid: program order
        heap.run_until_done()
        results = []
        for pid in (1, 2, 3, 4):
            req = heap.submit(pid, REMOVE)
            heap.run_until_done()
            results.append(heap.result_of(req))
        assert results == [f"job-{i}" for i in range(4)]
        verify(heap)

    def test_empty_heap_returns_bottom(self, small_heap):
        heap = small_heap
        req = heap.submit(3, REMOVE)
        heap.run_until_done()
        assert heap.result_of(req) is BOTTOM
        verify(heap)

    def test_delete_beyond_stored_returns_bottom_for_the_tail(self, small_heap):
        heap = small_heap
        heap.submit(1, INSERT, "only", priority=2)
        heap.run_until_done()
        first = heap.submit(2, REMOVE)
        second = heap.submit(3, REMOVE)
        heap.run_until_done()
        results = {heap.result_of(first), heap.result_of(second)}
        assert results == {"only", BOTTOM}
        assert heap.size == 0
        verify(heap)

    def test_insert_then_delete_same_process_waits_a_wave(self, small_heap):
        # the heap batch layout ranks removals before inserts, so this
        # pair cannot share a wave — program order forces the overflow
        heap = small_heap
        heap.submit(5, INSERT, "mine", priority=1)
        req = heap.submit(5, REMOVE)
        heap.run_until_done()
        assert heap.result_of(req) == "mine"
        verify(heap)

    def test_priority_validation(self, small_heap):
        with pytest.raises(ValueError):
            small_heap.submit(0, INSERT, "x", priority=3)
        with pytest.raises(ValueError):
            small_heap.submit(0, INSERT, "x", priority=-1)

    def test_queue_rejects_priorities(self):
        from repro.core.cluster import SkueueCluster

        with SkueueCluster(n_processes=4, seed=1) as queue:
            with pytest.raises(ValueError):
                queue.submit(0, 0, "x", priority=1)


class TestHeapWorkloads:
    @pytest.mark.parametrize("runner", ["sync", "async"])
    def test_random_mixed_priorities_verify(self, runner):
        with SkueueCluster(
            n_processes=12, seed=9, runner=runner, n_priorities=4, structure="heap"
        ) as heap:
            drive_heap_random(heap, rounds=220, op_probability=0.5, seed=9)
            heap.run_until_done()
            assert heap.metrics.generated > 60
            verify(heap)
            assert_topology_invariants(heap)

    def test_single_class_degenerates_to_a_queue(self):
        # n_priorities=1 must reproduce FIFO behaviour end to end
        with SkueueCluster(n_processes=8, structure="heap", seed=4, n_priorities=1) as heap:
            for i in range(5):
                heap.submit(2, INSERT, f"item-{i}")
            heap.run_until_done()
            results = []
            for i in range(5):
                req = heap.submit(3, REMOVE)
                heap.run_until_done()
                results.append(heap.result_of(req))
            assert results == [f"item-{i}" for i in range(5)]
            verify(heap)

    def test_skewed_priorities_drain_in_class_order(self):
        with SkueueCluster(n_processes=8, structure="heap", seed=6, n_priorities=3) as heap:
            rng = random.Random(61)
            for i in range(30):
                heap.submit(rng.randrange(8), INSERT, ("job", i), priority=rng.randrange(3))
            heap.run_until_done()
            assert heap.size == 30
            for _ in range(30):
                heap.submit(rng.randrange(8), REMOVE)
            heap.run_until_done()
            assert heap.size == 0
            verify(heap)


class TestHeapChurn:
    @pytest.mark.parametrize("runner", ["sync", "async"])
    def test_join_and_leave_under_heap_load(self, runner):
        with SkueueCluster(
            n_processes=10, seed=17, runner=runner, n_priorities=3, structure="heap"
        ) as heap:
            drive_heap_random(
                heap,
                rounds=320,
                op_probability=0.4,
                seed=17,
                join_probability=0.01,
                leave_probability=0.008,
            )
            heap.run_until_settled()
            verify(heap)
            assert_topology_invariants(heap)

    def test_anchor_handoff_keeps_class_counters(self):
        # drain the anchor-owning process: the per-class first/last
        # arrays must survive the A_ANCHOR_XFER handoff
        with SkueueCluster(n_processes=8, structure="heap", seed=23, n_priorities=3) as heap:
            rng = random.Random(23)
            for i in range(12):
                heap.submit(rng.randrange(8), INSERT, i, priority=rng.randrange(3))
            heap.run_until_done()
            anchor_pid = heap.anchor.pid
            heap.leave(anchor_pid)
            heap.run_until_settled()
            assert heap.anchor.pid != anchor_pid
            assert heap.size == 12
            for _ in range(12):
                pid = rng.choice(heap.live_pids())
                heap.submit(pid, REMOVE)
            heap.run_until_done()
            assert heap.size == 0
            verify(heap)
