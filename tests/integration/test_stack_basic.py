"""Integration tests: distributed stack (Skack, Section VI)."""

import pytest

from repro import BOTTOM, SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.net.records import NetOpRecord
from repro.overlay.ldb import MIDDLE, vid_of
from tests.conftest import drive_random, verify


class TestBasics:
    def test_lifo_end_to_end(self, small_stack):
        c = small_stack
        c.submit(2, INSERT, "x")
        c.run_until_done()
        c.submit(5, INSERT, "y")
        c.run_until_done()
        d1 = c.submit(7, REMOVE)
        c.run_until_done()
        d2 = c.submit(1, REMOVE)
        c.run_until_done()
        d3 = c.submit(3, REMOVE)
        c.run_until_done()
        assert c.result_of(d1) == "y"
        assert c.result_of(d2) == "x"
        assert c.result_of(d3) is BOTTOM
        verify(c)

    def test_local_annihilation_immediate(self, small_stack):
        c = small_stack
        c.submit(4, INSERT, "z")
        handle = c.submit(4, REMOVE)
        # answered before any message is even delivered (Section VI)
        assert c.result_of(handle) == "z"
        assert c.metrics.counters["annihilated_pairs"] == 1
        c.run_until_done()
        verify(c)

    def test_annihilation_is_lifo_nested(self, small_stack):
        c = small_stack
        c.submit(4, INSERT, "a")
        c.submit(4, INSERT, "b")
        p1 = c.submit(4, REMOVE)
        p2 = c.submit(4, REMOVE)
        assert c.result_of(p1) == "b"
        assert c.result_of(p2) == "a"
        c.run_until_done()
        verify(c)

    def test_an_annihilated_pair_is_marked_before_it_completes(self, small_stack):
        # completion is what a TCP host replicates (NetOpRecord's hook): a
        # pair completed before it is marked reaches the replicas as
        # "completed, never valued", which a post-crash rebuild drops
        c = small_stack
        seen = []
        for req_id, kind in enumerate((INSERT, REMOVE)):
            rec = NetOpRecord(req_id, 4, req_id, kind, "z", 0.0)
            rec.on_completed = lambda r: seen.append((r.req_id, r.local_match))
            c.records.append(rec)
            c.runtime.actors[vid_of(4, MIDDLE)].local_op(rec)
        assert seen == [(1, True), (0, True)]

    def test_no_cross_round_annihilation_after_flush(self):
        c = SkueueCluster(n_processes=8, structure="stack", seed=1)
        c.submit(3, INSERT, "deep")
        c.run_until_done()  # flushed to the DHT
        handle = c.submit(3, REMOVE)
        assert c.result_of(handle) is None  # must do the full protocol
        c.run_until_done()
        assert c.result_of(handle) == "deep"
        verify(c)

    def test_position_reuse_with_tickets(self):
        # push/pop/push/push reuses stack positions: tickets disambiguate
        c = SkueueCluster(n_processes=6, structure="stack", seed=2)
        c.submit(0, INSERT, "first")
        c.run_until_done()
        c.submit(1, REMOVE)
        c.run_until_done()
        c.submit(2, INSERT, "second")
        c.run_until_done()
        h = c.submit(3, REMOVE)
        c.run_until_done()
        assert c.result_of(h) == "second"
        verify(c)


class TestRandomWorkloads:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_random(self, seed):
        c = SkueueCluster(n_processes=12, structure="stack", seed=seed)
        drive_random(c, rounds=120, op_probability=0.5, seed=100 + seed)
        c.run_until_done(60_000)
        verify(c)

    def test_push_heavy(self):
        c = SkueueCluster(n_processes=10, structure="stack", seed=7)
        drive_random(c, rounds=80, insert_probability=0.9, seed=7)
        c.run_until_done(60_000)
        verify(c)

    def test_pop_heavy(self):
        c = SkueueCluster(n_processes=10, structure="stack", seed=8)
        drive_random(c, rounds=80, insert_probability=0.1, seed=8)
        c.run_until_done(60_000)
        verify(c)

    def test_stack_batches_constant_size(self):
        c = SkueueCluster(n_processes=10, structure="stack", seed=6)
        drive_random(c, rounds=150, op_probability=0.9, seed=6)
        c.run_until_done(60_000)
        # Theorem 20: [pops, pushes] — never longer
        assert c.metrics.max_batch_len <= 2
        verify(c)

    def test_barrier_blocks_next_wave(self):
        # the stack is slower than the queue under the same load: the
        # stage-4 barrier delays re-entering stage 1 (Section VII-C)
        from repro import SkueueCluster

        stack = SkueueCluster(n_processes=30, structure="stack", seed=5)
        queue = SkueueCluster(n_processes=30, seed=5)
        drive_random(stack, rounds=150, op_probability=0.8, seed=55)
        drive_random(queue, rounds=150, op_probability=0.8, seed=55)
        stack.run_until_done(60_000)
        queue.run_until_done(60_000)
        assert stack.metrics.mean_latency() > queue.metrics.mean_latency()
