"""Integration tests: JOIN/LEAVE and update phases (Section IV)."""

import random

import pytest

from repro import SkueueCluster
from repro.core.actions import A_DEPART_COMMIT, A_JOIN_GRANT, A_RT_GET, A_SLICE_REQ
from repro.core.protocol import Node
from repro.core.requests import INSERT, REMOVE
from repro.overlay.ldb import MIDDLE, vid_of
from tests.conftest import assert_topology_invariants, drive_random, verify


class TestJoin:
    @pytest.mark.parametrize("seed", range(3))
    def test_single_join_under_load(self, seed):
        c = SkueueCluster(n_processes=6, seed=seed)
        rng = random.Random(seed)
        for i in range(10):
            c.submit(rng.randrange(6), INSERT, f"pre{i}")
        c.run_until_done(20_000)
        new_pid = c.join()
        drive_random(c, rounds=150, op_probability=0.3, seed=seed)
        c.run_until_settled(60_000)
        verify(c)
        assert new_pid in c.members
        assert len(c.cycle_vids()) == 21
        assert_topology_invariants(c)
        # the new process is fully operational
        handle = c.submit(new_pid, REMOVE)
        c.submit(new_pid, INSERT, "hello")
        c.run_until_done(30_000)
        verify(c)

    def test_concurrent_joins_possibly_moving_anchor(self):
        for seed in (3, 4):  # seeds known to relocate the anchor
            c = SkueueCluster(n_processes=5, seed=seed)
            old_anchor = c.anchor.vid
            for _ in range(4):
                c.join()
            drive_random(c, rounds=200, op_probability=0.3, seed=seed)
            c.run_until_settled(60_000)
            verify(c)
            assert len(c.cycle_vids()) == 27
            assert_topology_invariants(c)

    def test_join_gets_dht_data(self):
        c = SkueueCluster(n_processes=4, seed=1)
        for i in range(60):
            c.submit(i % 4, INSERT, i)
        c.run_until_done(30_000)
        c.join()
        c.run_until_settled(60_000)
        # data is spread over the (now larger) node set, none lost
        assert sum(c.occupancies()) == 60
        # dequeues return every element exactly once, and each process's
        # items come back in its program order (cross-process interleaving
        # is decided by the combination order — any fixed order is valid)
        handles = [c.submit(0, REMOVE) for _ in range(60)]
        c.run_until_done(60_000)
        results = [c.result_of(h) for h in handles]
        assert sorted(results) == list(range(60))
        for pid in range(4):
            mine = [v for v in results if v % 4 == pid]
            assert mine == sorted(mine)
        verify(c)

    def test_join_rejects_duplicates(self):
        c = SkueueCluster(n_processes=3, seed=0)
        with pytest.raises(ValueError):
            c.join(new_pid=1)

    def test_a_carve_that_overtakes_the_grant_still_ends_the_range(
            self, monkeypatch):
        """Two joiners granted by one node: the later one's A_SLICE_REQ
        can reach the earlier joiner before that joiner's own grant.  The
        grant must not widen the range back over the carved slice, or a
        PUT for the later joiner's keys is stored at the earlier one."""
        c = SkueueCluster(n_processes=4, seed=1)
        c.join(new_pid=4)
        joiner = c.runtime.actors[vid_of(4, MIDDLE)]
        resp = vid_of(0, MIDDLE)
        carve, end = (joiner.label + 0.1) % 1.0, (joiner.label + 0.2) % 1.0
        sent = []
        monkeypatch.setattr(Node, "send", lambda node, dest, action, payload:
                            sent.append((dest, action)))
        joiner.handle(A_SLICE_REQ, (99, carve, end))
        joiner.handle(A_JOIN_GRANT, (resp, end, {}, {}))
        assert joiner.joining_range_end == carve
        carved_key = (carve + 0.05) % 1.0
        joiner.handle(A_RT_GET, (carved_key, 0, 0, 0.0, (resp, 0, 0.0)))
        assert sent[-1] == (resp, A_RT_GET)


class TestLeave:
    @pytest.mark.parametrize("leave_anchor", [False, True])
    def test_leave_under_load(self, leave_anchor):
        c = SkueueCluster(n_processes=8, seed=2)
        rng = random.Random(2)
        for i in range(12):
            c.submit(rng.randrange(8), INSERT, f"pre{i}")
        c.run_until_done(20_000)
        anchor_pid = c.anchor.pid
        leaver = anchor_pid if leave_anchor else (anchor_pid + 1) % 8
        c.leave(leaver)
        drive_random(c, rounds=250, op_probability=0.3, seed=20)
        c.run_until_settled(90_000)
        verify(c)
        assert leaver not in c.members
        assert len(c.cycle_vids()) == 21
        assert_topology_invariants(c)
        # no element was lost with the departing process: everything
        # enqueued and not dequeued is still stored somewhere
        matched = sum(
            1 for r in c.records if r.kind == 1 and isinstance(r.result, tuple)
        )
        enqueued = sum(1 for r in c.records if r.kind == 0)
        assert sum(c.occupancies()) == enqueued - matched

    def test_leave_guards(self):
        c = SkueueCluster(n_processes=2, seed=0)
        c.leave(0)
        with pytest.raises(ValueError):
            c.leave(1)  # would empty the cluster
        with pytest.raises(ValueError):
            c.leave(0)  # wait — already leaving; also not re-leavable
        with pytest.raises(ValueError):
            c.submit(0, INSERT)  # leaving processes take no requests

    def test_a_dumped_node_forwards_routes_before_its_leave_grant(
            self, monkeypatch):
        """Async delivery can bring DEPART_COMMIT (the dump) before the
        LEAVE_GRANT that sets ``replaced``.  A PUT/GET delivered in that
        window would land in the emptied store of a node about to exit;
        the responsible node, which holds the dump, takes it instead."""
        c = SkueueCluster(n_processes=4, seed=1)
        node = c.runtime.actors[vid_of(1, MIDDLE)]
        resp = vid_of(0, MIDDLE)
        sent = []
        monkeypatch.setattr(Node, "send", lambda node, dest, action, payload:
                            sent.append((dest, action)))
        node.resp_vid = resp  # the DEPART_REQ names the responsible node
        node.handle(A_DEPART_COMMIT, ())
        assert node.dumped and not node.replaced
        # a key the node itself owns: [label, succ)
        node.handle(A_RT_GET, (node.label, 0, 0, 0.0, (resp, 0, 0.0)))
        assert sent[-1] == (resp, A_RT_GET)

    def test_leave_preserves_elements(self):
        c = SkueueCluster(n_processes=6, seed=4)
        for i in range(40):
            c.submit(i % 6, INSERT, i)
        c.run_until_done(30_000)
        c.leave(2)
        c.run_until_settled(90_000)
        assert sum(c.occupancies()) == 40
        handles = [c.submit(0, REMOVE) for _ in range(40)]
        c.run_until_done(60_000)
        results = [c.result_of(h) for h in handles]
        assert sorted(results) == list(range(40))
        for pid in range(6):
            mine = [v for v in results if v % 6 == pid]
            assert mine == sorted(mine)
        verify(c)


    def test_leave_hands_over_a_backlog_of_any_depth(self):
        # one process walking two classes downwards fits two inserts to a
        # wave: 2300 of them are 1150 waves' worth of buffer when the
        # leave commits, and every one has to reach the adopter (the
        # hand-over used to stop after 1024 waves; 251 ops never completed)
        c = SkueueCluster(6, structure="heap", seed=5, n_priorities=2)
        c.step(5)
        for i in range(2300):
            c.submit(2, INSERT, f"x{i}", priority=(i + 1) % 2)
        c.leave(2)
        c.run_until_settled()
        assert sum(rec.completed for rec in c.records) == 2300
        verify(c)


class TestChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_queue_churn(self, seed):
        c = SkueueCluster(n_processes=10, seed=seed)
        drive_random(
            c,
            rounds=500,
            op_probability=0.35,
            seed=seed * 7 + 1,
            join_probability=0.02,
            leave_probability=0.015,
        )
        c.run_until_settled(150_000)
        verify(c)
        assert len(c.cycle_vids()) == 3 * len(c.members)
        assert_topology_invariants(c)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stack_churn(self, seed):
        c = SkueueCluster(n_processes=10, structure="stack", seed=seed)
        drive_random(
            c,
            rounds=500,
            op_probability=0.35,
            seed=seed * 11 + 3,
            join_probability=0.02,
            leave_probability=0.015,
        )
        c.run_until_settled(150_000)
        verify(c)
        assert len(c.cycle_vids()) == 3 * len(c.members)
        assert_topology_invariants(c)
