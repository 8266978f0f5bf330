"""Integration tests: basic distributed-queue behaviour."""

import random

import pytest

from repro import BOTTOM, SkueueCluster
from repro.core.requests import INSERT, REMOVE
from tests.conftest import assert_topology_invariants, drive_random, verify


class TestBasics:
    def test_fifo_end_to_end(self, small_queue):
        c = small_queue
        c.submit(2, INSERT, "a")
        c.run_until_done()
        c.submit(5, INSERT, "b")
        c.run_until_done()
        d1, d2, d3 = c.submit(7, REMOVE), None, None
        c.run_until_done()
        d2 = c.submit(1, REMOVE)
        c.run_until_done()
        d3 = c.submit(3, REMOVE)
        c.run_until_done()
        assert c.result_of(d1) == "a"
        assert c.result_of(d2) == "b"
        assert c.result_of(d3) is BOTTOM
        verify(c)

    def test_size_tracks_anchor(self, small_queue):
        c = small_queue
        for i in range(5):
            c.submit(i % 8, INSERT, i)
        c.run_until_done()
        assert c.size == 5
        c.submit(0, REMOVE)
        c.submit(1, REMOVE)
        c.run_until_done()
        assert c.size == 3

    def test_pending_result_is_none(self, small_queue):
        c = small_queue
        handle = c.submit(0, REMOVE)
        assert c.result_of(handle) is None

    def test_inject_validation(self, small_queue):
        with pytest.raises(ValueError):
            small_queue.submit(99, INSERT)

    def test_topology_invariants_static(self, small_queue):
        small_queue.step(5)
        assert_topology_invariants(small_queue)

    def test_single_process_cluster(self):
        c = SkueueCluster(n_processes=1, seed=0)
        h1 = c.submit(0, INSERT, "only")
        d = c.submit(0, REMOVE)
        c.run_until_done()
        assert c.result_of(d) == "only"
        verify(c)

    def test_occupancy_conservation(self):
        c = SkueueCluster(n_processes=10, seed=3)
        for i in range(40):
            c.submit(i % 10, INSERT, i)
        c.run_until_done()
        assert sum(c.occupancies()) == 40
        for i in range(15):
            c.submit(i % 10, REMOVE)
        c.run_until_done()
        assert sum(c.occupancies()) == 25
        verify(c)


class TestRandomWorkloads:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_random(self, seed):
        c = SkueueCluster(n_processes=12, seed=seed)
        drive_random(c, rounds=120, op_probability=0.5, seed=seed)
        c.run_until_done(60_000)
        verify(c)

    def test_dequeue_heavy(self):
        c = SkueueCluster(n_processes=10, seed=9)
        drive_random(c, rounds=100, insert_probability=0.2, seed=9)
        c.run_until_done(60_000)
        verify(c)
        # most dequeues hit an empty queue
        assert c.metrics.latency["dequeue_empty"].count > 0

    def test_enqueue_only(self):
        c = SkueueCluster(n_processes=10, seed=10)
        drive_random(c, rounds=80, insert_probability=1.0, seed=10)
        c.run_until_done(60_000)
        verify(c)
        assert c.size == c.metrics.latency["enqueue"].count

    def test_burst_from_one_node(self):
        c = SkueueCluster(n_processes=20, seed=11)
        for i in range(200):
            c.submit(3, INSERT, i)
        c.run_until_done(30_000)
        for i in range(200):
            c.submit(17, REMOVE)
        c.run_until_done(30_000)
        verify(c)
        # FIFO: the dequeues returned 0..199 in order
        results = [
            rec.result[1]
            for rec in c.records
            if rec.kind == 1 and rec.result is not BOTTOM
        ]
        assert results == list(range(200))

    def test_burst_flushes_in_fewer_rounds_than_requests(self):
        # Corollary 16: one node flushes an arbitrary backlog in one
        # wave; a per-request protocol would need >= 500 rounds at the
        # origin alone
        c = SkueueCluster(n_processes=300, seed=4, shuffle_delivery=False)
        for i in range(500):
            c.submit(7, INSERT, i)
        start = c.runtime.round
        c.run_until_done(20_000)
        assert c.runtime.round - start < 500


class TestAsyncRunner:
    def test_async_basic(self):
        from repro.sim.delays import UniformDelay

        c = SkueueCluster(
            n_processes=8, seed=1, runner="async", delay_policy=UniformDelay(0.3, 2.5)
        )
        rng = random.Random(1)
        for i in range(40):
            pid = rng.randrange(8)
            if rng.random() < 0.5:
                c.submit(pid, INSERT, i)
            else:
                c.submit(pid, REMOVE)
            c.step(rng.randrange(3))
        c.run_until_done()
        verify(c)

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError):
            SkueueCluster(n_processes=2, runner="quantum")
