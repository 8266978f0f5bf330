"""Cluster facade behaviour: results, introspection, lifecycle edges."""

import pytest

from repro import SkueueCluster
from repro.core.requests import INSERT, REMOVE
from tests.conftest import verify


class TestResults:
    def test_insert_result_is_true_when_done(self, small_queue):
        handle = small_queue.submit(0, INSERT, "x")
        small_queue.run_until_done()
        assert small_queue.result_of(handle) is True

    def test_items_can_be_arbitrary_objects(self, small_queue):
        payload = {"nested": [1, 2, (3, 4)]}
        small_queue.submit(1, INSERT, payload)
        handle = small_queue.submit(2, REMOVE)
        small_queue.run_until_done()
        assert small_queue.result_of(handle) == payload

    def test_duplicate_items_are_distinct_elements(self, small_queue):
        # the paper's w.l.o.g. uniqueness assumption, realised by tagging
        small_queue.submit(0, INSERT, "same")
        small_queue.submit(1, INSERT, "same")
        h1 = small_queue.submit(2, REMOVE)
        h2 = small_queue.submit(3, REMOVE)
        small_queue.run_until_done()
        assert small_queue.result_of(h1) == "same"
        assert small_queue.result_of(h2) == "same"
        verify(small_queue)  # two distinct matches, no double-return

    def test_records_are_the_full_history(self, small_queue):
        small_queue.submit(0, INSERT, "x")
        small_queue.submit(1, REMOVE)
        small_queue.run_until_done()
        assert len(small_queue.records) == 2
        assert small_queue.records[0].kind == INSERT


class TestIntrospection:
    def test_now_advances(self, small_queue):
        before = small_queue.now
        small_queue.step(5)
        assert small_queue.now == before + 5

    def test_anchor_unique(self, small_queue):
        anchor = small_queue.anchor
        others = [
            node
            for node in small_queue.runtime.actors.values()
            if node.is_anchor and node.vid != anchor.vid
        ]
        assert not others

    def test_cycle_vids_covers_everything(self, small_queue):
        assert len(small_queue.cycle_vids()) == 24  # 8 processes x 3

    def test_salt_separates_clusters(self):
        a = SkueueCluster(n_processes=4, seed=1)
        b = SkueueCluster(n_processes=4, seed=2)
        assert a.anchor.label != b.anchor.label

    def test_metrics_counts(self, small_queue):
        small_queue.submit(0, INSERT)
        small_queue.submit(1, INSERT)
        assert small_queue.metrics.generated == 2
        small_queue.run_until_done()
        assert small_queue.metrics.completed == 2


class TestLifecycleEdges:
    def test_needs_at_least_one_process(self):
        with pytest.raises(ValueError):
            SkueueCluster(n_processes=0)

    def test_join_auto_pid_allocation(self):
        c = SkueueCluster(n_processes=3, seed=5)
        first = c.join()
        second = c.join()
        assert first == 3 and second == 4
        c.run_until_settled(60_000)
        assert c.live_pids() == [0, 1, 2, 3, 4]

    def test_two_cluster_types_share_nothing(self):
        q = SkueueCluster(n_processes=3, seed=1)
        s = SkueueCluster(n_processes=3, structure="stack", seed=1)
        q.submit(0, INSERT, "q-item")
        s.submit(0, INSERT, "s-item")
        q.run_until_done()
        s.run_until_done()
        hq = q.submit(1, REMOVE)
        hs = s.submit(1, REMOVE)
        q.run_until_done()
        s.run_until_done()
        assert q.result_of(hq) == "q-item"
        assert s.result_of(hs) == "s-item"

    def test_sequential_membership_waves(self):
        # join, settle, leave the same process again, settle
        c = SkueueCluster(n_processes=4, seed=8)
        pid = c.join()
        c.run_until_settled(60_000)
        c.submit(pid, INSERT, "hello")
        c.run_until_done(30_000)
        c.leave(pid)
        c.run_until_settled(90_000)
        assert pid not in c.members
        handle = c.submit(0, REMOVE)
        c.run_until_done(30_000)
        assert c.result_of(handle) == "hello"  # data survived the leave
        verify(c)
