"""Unit tests for the ops plane: failure detector state machine,
crash eviction on the cluster map, the rebuild planner and the HTTP
listener's answers."""

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.net.membership import ClusterMap
from repro.net.transport import FrameReader, encode_frame
from repro.ops.detector import HEARTBEAT_SECONDS, FailureDetector
from repro.ops.health import serve_http
from repro.ops.recovery import merge_records, plan_rebuild
from repro.verify.models import QueueModel, StackModel
from repro.verify.seqcons import check_history

HB = HEARTBEAT_SECONDS


# -- failure detector ----------------------------------------------------------


class TestDetector:
    def test_silence_past_threshold_suspects_exactly_once(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        assert det.observe(0.9) == []  # 3 windows: below threshold
        assert det.observe(1.0) == [1]  # 4th window
        assert det.observe(1.5) == []  # same episode: not re-reported
        assert det.suspects() == [1]

    def test_any_frame_clears_suspicion(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.observe(1.2)
        assert det.is_suspect(1)
        det.heard_from(1, now=1.3)
        assert not det.is_suspect(1)
        assert det.suspects() == []

    def test_slow_peer_never_crosses_threshold(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        now = 0.0
        for _ in range(20):  # squeaks through every 3 windows
            now += 3 * HB
            assert det.observe(now) == []
            det.heard_from(1, now)
        assert det.suspects() == []

    def test_flapping_must_re_earn_the_full_threshold(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.corroborate(1, reporter=2)
        det.observe(1.2)
        assert det.is_suspect(1)
        det.heard_from(1, now=1.3)  # flap: came back
        # silent again — needs 4 fresh windows from 1.3, and the old
        # corroboration must not carry over
        assert det.observe(1.3 + 3 * HB) == []
        assert det.observe(1.3 + 4 * HB) == [1]
        assert not det.should_evict(1, now=1.3 + 4 * HB, n_live=3)

    def test_false_positive_recovery_then_real_death(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.observe(1.1)
        det.heard_from(1, now=1.15)  # was a GC pause, not a crash
        assert det.suspects() == []
        assert det.observe(1.15 + 4 * HB) == [1]  # now it really died

    def test_eviction_needs_corroboration_or_patience(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.observe(1.0)
        assert not det.should_evict(1, now=1.0, n_live=3)
        det.corroborate(1, reporter=2)
        assert det.should_evict(1, now=1.0, n_live=3)

    def test_eviction_by_confirm_window(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.observe(1.0)
        assert not det.should_evict(1, now=2.0, n_live=3)
        assert det.should_evict(1, now=1.0 + 1.5, n_live=3)

    def test_two_host_cluster_evicts_on_local_suspicion(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.observe(1.0)
        assert det.should_evict(1, now=1.0, n_live=2)

    def test_a_refusal_suspects_at_once_and_once_per_episode(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        assert det.refused(1, now=0.1)
        assert not det.refused(1, now=0.2)  # the link's next redial
        assert det.suspects() == [1]
        assert det.observe(2.0) == []  # silence reports it no second time
        # a refusal starts the suspicion sooner; eviction wants the same
        assert not det.should_evict(1, now=0.1, n_live=3)
        assert det.should_evict(1, now=0.1 + 1.5, n_live=3)
        assert det.should_evict(1, now=0.1, n_live=2)

    def test_a_frame_does_not_clear_a_refusal_a_dial_does(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.refused(1, now=0.1)
        det.corroborate(1, reporter=2)
        det.heard_from(1, now=0.15)  # buffered before its process died
        assert det.is_suspect(1) and det.should_evict(1, now=0.15, n_live=3)
        det.dialed(1)  # its port listens again
        assert det.suspects() == []
        assert not det.should_evict(1, now=0.2, n_live=2)
        assert det.refused(1, now=0.3)  # the next refusal is a new episode
        assert not det.should_evict(1, now=0.3, n_live=3)  # witness gone too

    def test_a_dial_does_not_clear_silence(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        assert det.observe(1.0) == [1]
        det.dialed(1)  # a paused host's kernel still accepts
        assert det.is_suspect(1)
        assert not det.refused(1, now=1.1)  # already suspected: no new report
        det.heard_from(1, now=1.2)
        assert det.is_suspect(1)  # and now a frame no longer clears it

    def test_a_refusal_of_an_unwatched_host_is_a_no_op(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        assert not det.refused(5, now=0.1)
        assert det.suspects() == [] and det.watched() == [1]

    def test_forget_drops_a_refusal(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.refused(1, now=0.1)
        det.forget(1)
        assert det.suspects() == []
        det.register(1, now=1.0)
        assert det.refused(1, now=1.1)  # a new episode

    def test_forget_and_snapshot(self):
        det = FailureDetector()
        det.register(1, now=0.0)
        det.register(2, now=0.0)
        det.observe(1.0)
        det.forget(1)
        assert det.watched() == [2]
        assert not det.should_evict(1, now=5.0, n_live=3)
        snap = det.snapshot(now=1.0)
        assert "1" not in snap["watched"]
        assert snap["watched"]["2"]["suspect"]


# -- crash eviction on the cluster map ----------------------------------------


class TestSuspectReports:
    """The acting coordinator's side of a ``suspect`` frame: a report is
    a witness only from another live member of the map."""

    def test_a_report_counts_only_from_another_live_member(self):
        from tests.unit.test_control import Conn, Net

        net = Net(3)
        net.run(0.5)
        coordinator = net.hosts[0]
        net.kill(2)
        # host 1's own reports are lost: the coordinator is on its own
        net.lose = lambda src, dest, frame: frame["op"] == "suspect"
        net.run(1.25)
        assert coordinator.control.detector.is_suspect(2)
        # no reporter, the suspect, the coordinator itself, a stranger
        for by in ({}, {"by": 2}, {"by": 0}, {"by": 7}):
            coordinator.dispatch(Conn(), {"op": "suspect", "host": 2, **by})
        net.run(0.5)  # still short of CONFIRM_SECONDS
        assert 2 in coordinator.control.cluster.hosts
        coordinator.dispatch(Conn(), {"op": "suspect", "host": 2, "by": 1})
        assert 2 not in coordinator.control.cluster.hosts  # at once


def three_host_map() -> ClusterMap:
    hosts = {i: ("127.0.0.1", 9000 + i) for i in range(3)}
    return ClusterMap.genesis(hosts, n_processes=6)


class TestEvictHost:
    def test_evict_removes_host_and_its_pids(self):
        cmap = three_host_map()
        version = cmap.version
        cmap.evict_host(1, adopter=2)
        assert sorted(cmap.hosts) == [0, 2]
        assert cmap.pids_of(1) == []
        evicted = three_host_map().pids_of(1)
        assert len(evicted) == 2
        assert sorted(cmap.pid_owner) == sorted(set(range(6)) - set(evicted))
        assert cmap.departed == {1: 2}
        assert cmap.complete_target(1) == 2
        assert cmap.version == version + 1
        assert cmap.recovery_epoch == 1

    def test_evict_cancels_departures_in_progress(self):
        """The rebuild respawns every surviving pid as a full member: a
        drain's ``leaving`` mark and the forwards its departed nodes left
        would route around nodes that are live again."""
        cmap = three_host_map()
        cmap.start_drain(2)
        cmap.merge_forwards({8: 1})
        draft = cmap.copy()
        draft.evict_host(1, adopter=2)
        assert not draft.leaving and not draft.forwards
        # the coordinator mutates a draft: its live map is untouched
        assert cmap.leaving == {2} and cmap.forwards == {8: 1}
        assert 1 in cmap.hosts and draft.version == cmap.version + 1

    def test_evict_validates_arguments(self):
        cmap = three_host_map()
        cmap.evict_host(1, adopter=2)
        for dead, adopter in [(1, 2), (0, 0), (0, 7)]:
            try:
                cmap.evict_host(dead, adopter)
            except ValueError:
                pass
            else:
                raise AssertionError(f"evict_host({dead}, {adopter}) passed")

    def test_recovery_epoch_survives_the_wire(self):
        cmap = three_host_map()
        cmap.evict_host(2, adopter=0)
        (frame,) = FrameReader().feed(encode_frame(
            {"op": "host_map", "map": cmap}))
        back = frame["map"]
        assert back.recovery_epoch == 1
        assert back.departed == {2: 0}

    def test_coordinator_succession_is_lowest_live(self):
        cmap = three_host_map()
        assert cmap.coordinator == 0
        cmap.evict_host(0, adopter=1)
        assert cmap.coordinator == 1

    def test_successors_are_cyclic(self):
        cmap = three_host_map()
        assert cmap.successors_of(0) == [1, 2]
        assert cmap.successors_of(2) == [0, 1]
        cmap.evict_host(1, adopter=2)
        assert cmap.successors_of(0) == [2]
        assert cmap.successors_of(2) == [0]


# -- rebuild planner -----------------------------------------------------------


def rec(
    req_id,
    pid,
    idx,
    kind,
    item=None,
    value=None,
    result=None,
    completed=False,
    pri=0,
    local_match=False,
):
    out = OpRecord(req_id, pid, idx, kind, item, 0.0, priority=pri)
    out.value = value
    out.result = result
    out.completed = completed
    out.local_match = local_match
    return out


def plan_for(records, structure="queue", n_priorities=1):
    merged = {r.req_id: r for r in records}
    return plan_rebuild(merged, structure, n_priorities=n_priorities), merged


class TestMergeRecords:
    def test_completed_copy_wins_and_values_fill_gaps(self):
        a = rec(10, 0, 0, INSERT, "x", value=3)
        b = rec(10, 0, 0, INSERT, "x", value=3, completed=True)
        c = rec(11, 0, 1, REMOVE)
        d = rec(11, 0, 1, REMOVE, value=4)
        merged = merge_records([[a, c], [b, d]])
        assert merged[10].completed
        assert merged[11].value == 4
        assert not merged[11].completed

    def test_copies_do_not_alias_inputs(self):
        a = rec(10, 0, 0, INSERT, "x", value=3)
        merged = merge_records([[a]])
        merged[10].completed = True
        assert not a.completed


class TestPlanQueue:
    def test_replay_completes_valued_incomplete_ops(self):
        i1 = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        i2 = rec(16, 0, 1, INSERT, "b", value=2)  # valued, incomplete
        d1 = rec(24, 1, 0, REMOVE, value=3, completed=True, result=(8, "a"))
        d2 = rec(32, 1, 1, REMOVE, value=4)  # valued, incomplete
        plan, merged = plan_for([i1, i2, d1, d2])
        assert merged[16].completed
        assert merged[32].completed and merged[32].result == (16, "b")
        assert sorted(plan.completions) == [16, 32]
        assert plan.elements == []
        assert plan.anchor == (0, -1, 5, 0, 0)
        assert plan.reruns == [] and plan.errors == []

    def test_survivors_get_fifo_positions_and_anchor_range(self):
        i1 = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        i2 = rec(16, 0, 1, INSERT, "b", value=2, completed=True)
        d = rec(24, 1, 0, REMOVE, value=5, completed=True, result=(8, "a"))
        plan, _ = plan_for([i1, i2, d])
        assert plan.elements == [(0, (16, "b"))]
        assert plan.anchor == (0, 0, 6, 0, 0)

    def test_unvalued_records_are_reruns(self):
        i1 = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        d = rec(9, 1, 0, REMOVE)  # never reached the anchor
        plan, merged = plan_for([i1, d])
        assert plan.reruns == [9]
        assert not merged[9].completed

    def test_repair_lost_remove_explains_bottom(self):
        # a completed (acked!) dequeue saw ⊥, so some lost dequeue must
        # have drained the queue first — synthesize it
        i1 = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        lost = rec(17, 1, 0, REMOVE)  # value died with its host
        d = rec(24, 2, 0, REMOVE, value=5, completed=True, result=BOTTOM)
        plan, merged = plan_for([i1, lost, d])
        assert plan.repairs == [17]
        assert merged[17].completed and merged[17].result == (8, "a")
        assert 1 < merged[17].value < 5
        assert plan.reruns == [] and plan.errors == []
        assert plan.elements == []

    def test_repair_lost_insert_of_a_consumed_element(self):
        # a completed dequeue returned an element whose insert lost its
        # value with the dead host — the insert must slot in just before
        lost = rec(7, 1, 0, INSERT, "x")
        d = rec(24, 2, 0, REMOVE, value=10, completed=True, result=(7, "x"))
        plan, merged = plan_for([lost, d])
        assert plan.repairs == [7]
        assert merged[7].completed and merged[7].value < 10
        assert plan.elements == []
        assert plan.errors == []

    def test_repair_chain_stale_front_then_consume(self):
        # survivor 'a' sits at the front, but the acked dequeue consumed
        # 'b': a lost dequeue must have taken 'a' first
        i1 = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        i2 = rec(16, 0, 1, INSERT, "b", value=2, completed=True)
        lost = rec(17, 1, 0, REMOVE)
        d = rec(24, 2, 0, REMOVE, value=6, completed=True, result=(16, "b"))
        plan, merged = plan_for([i1, i2, lost, d])
        assert plan.repairs == [17]
        assert merged[17].result == (8, "a")
        assert plan.elements == []

    def test_repair_inserts_whose_serve_died_with_their_host(self):
        # the anchor valued L between a and b, but the SERVE carrying the
        # value died on the link to L's host; the survivors' removes went
        # on: v1 and v2 were valued and never completed (v2's position
        # was L's, whose PUT never happened), then r completed with b.
        # Without L the replay hands b to v2 — feed v2 the lost insert
        a = rec(8, 1, 0, INSERT, "a", value=1, completed=True)
        lost = rec(16, 0, 0, INSERT, "L")
        b = rec(24, 1, 1, INSERT, "b", value=3, completed=True)
        v1 = rec(32, 2, 0, REMOVE, value=4)
        v2 = rec(40, 2, 1, REMOVE, value=5)
        r = rec(48, 2, 2, REMOVE, value=6, completed=True, result=(24, "b"))
        plan, merged = plan_for([a, lost, b, v1, v2, r])
        assert plan.repairs == [16] and plan.errors == []
        assert 1 < merged[16].value < 3
        assert merged[32].result == (8, "a")
        assert merged[40].result == (16, "L")
        check_history(list(merged.values()), QueueModel)

    def test_a_lost_batch_is_valued_where_its_serve_died(self):
        # pid 1's batch after z (L, then a remove that took a) was valued
        # 5 and 6, and its SERVE died; the survivors went on: c, then r1
        # took b, r2 waited on L's hole, r3 took c.  Valued just below r1
        # the lost batch would come after c, hand c to r2 and leave r3
        # unexplained; in the values it held, every record reconciles
        z = rec(1, 1, 0, INSERT, "z", value=1, completed=True)
        rz = rec(2, 2, 0, REMOVE, value=2, completed=True, result=(1, "z"))
        a = rec(3, 0, 0, INSERT, "a", value=3, completed=True)
        b = rec(4, 0, 1, INSERT, "b", value=4, completed=True)
        lost_insert = rec(5, 1, 1, INSERT, "L")
        lost_remove = rec(6, 1, 2, REMOVE)
        c = rec(7, 0, 2, INSERT, "c", value=7, completed=True)
        r1 = rec(8, 2, 1, REMOVE, value=8, completed=True, result=(4, "b"))
        r2 = rec(9, 2, 2, REMOVE, value=9)
        r3 = rec(10, 0, 3, REMOVE, value=10, completed=True, result=(7, "c"))
        plan, merged = plan_for(
            [z, rz, a, b, lost_insert, lost_remove, c, r1, r2, r3])
        assert plan.errors == [] and plan.repairs == [5, 6]
        assert (merged[5].value, merged[6].value) == (5, 6)  # the values held
        assert merged[6].result == (3, "a")
        assert merged[9].result == (5, "L")
        check_history(list(merged.values()), QueueModel)

    def test_a_repaired_insert_keeps_its_process_order(self):
        # the lost insert's earlier sibling was valued after the remove
        # that holds its element: it cannot slot in before that remove
        sibling = rec(8, 1, 0, INSERT, "s", value=7, completed=True)
        lost = rec(16, 1, 1, INSERT, "x")
        d = rec(24, 2, 0, REMOVE, value=5, completed=True, result=(16, "x"))
        plan, merged = plan_for([sibling, lost, d])
        assert 16 not in plan.repairs and merged[16].value is None
        assert plan.errors

    def test_a_lost_remove_brings_its_earlier_lost_records(self):
        # the lost remove's process ran an insert just before it whose
        # value died too: valuing the remove alone would re-run that
        # insert after it (Definition 1, property 4) — both are valued
        a = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        c = rec(9, 0, 1, INSERT, "c", value=2, completed=True)
        before = rec(16, 1, 0, INSERT, "b")
        lost = rec(17, 1, 1, REMOVE)
        d = rec(24, 2, 0, REMOVE, value=5, completed=True, result=(9, "c"))
        plan, merged = plan_for([a, c, before, lost, d])
        assert plan.repairs == [16, 17] and plan.errors == []
        assert 2 < merged[16].value < merged[17].value < 5
        assert merged[17].result == (8, "a")
        assert plan.elements == [(0, (16, "b"))]
        check_history(list(merged.values()), QueueModel)

    def test_irreconcilable_record_is_an_error_not_a_crash(self):
        # result names an element no record ever inserted
        d = rec(24, 2, 0, REMOVE, value=6, completed=True, result=(99, "zz"))
        plan, _ = plan_for([d])
        assert plan.errors
        assert plan.elements == []

    def test_counter_clears_every_observed_value(self):
        i1 = rec(8, 0, 0, INSERT, "a", value=41, completed=True)
        plan, _ = plan_for([i1])
        assert plan.anchor[2] == 42


class TestPlanStack:
    def test_lifo_positions_and_tickets(self):
        a = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        b = rec(16, 0, 1, INSERT, "b", value=2, completed=True)
        pop = rec(24, 1, 0, REMOVE, value=3, completed=True, result=(16, "b"))
        plan, _ = plan_for([a, b, pop], structure="stack")
        assert plan.elements == [(1, 1, (8, "a"))]
        # anchor: last=1, ticket=1 (top's ticket), counter past max value
        assert plan.anchor == (1, 1, 4, 0, 0)

    def test_local_match_pairs_are_invisible(self):
        a = rec(8, 0, 0, INSERT, "a", completed=True, local_match=True)
        b = rec(16, 0, 1, REMOVE, result=(8, "a"), completed=True,
                local_match=True)
        c = rec(24, 1, 0, INSERT, "c", value=1, completed=True)
        plan, _ = plan_for([a, b, c], structure="stack")
        assert plan.elements == [(1, 1, (24, "c"))]
        assert plan.reruns == [] and plan.errors == []

    def test_repair_a_push_whose_serve_died_with_its_host(self):
        # L was pushed after b and popped by v, whose pop never completed;
        # r then popped b.  Without L the replay hands b to v
        a = rec(8, 1, 0, INSERT, "a", value=1, completed=True)
        b = rec(16, 1, 1, INSERT, "b", value=2, completed=True)
        lost = rec(24, 0, 0, INSERT, "L")
        v = rec(32, 2, 0, REMOVE, value=4)
        r = rec(40, 2, 1, REMOVE, value=5, completed=True, result=(16, "b"))
        plan, merged = plan_for([a, b, lost, v, r], structure="stack")
        assert plan.repairs == [24] and plan.errors == []
        assert 2 < merged[24].value < 4
        assert merged[32].result == (24, "L")
        check_history(list(merged.values()), StackModel)

    def test_incomplete_pop_takes_the_top(self):
        a = rec(8, 0, 0, INSERT, "a", value=1, completed=True)
        b = rec(16, 0, 1, INSERT, "b", value=2, completed=True)
        pop = rec(24, 1, 0, REMOVE, value=3)
        plan, merged = plan_for([a, b, pop], structure="stack")
        assert merged[24].result == (16, "b")
        assert plan.elements == [(1, 1, (8, "a"))]


class TestPlanHeap:
    def test_per_class_positions_and_lowest_class_first(self):
        a = rec(8, 0, 0, INSERT, "a", value=1, completed=True, pri=0)
        b = rec(16, 0, 1, INSERT, "b", value=2, completed=True, pri=1)
        c = rec(32, 0, 2, INSERT, "c", value=3, completed=True, pri=1)
        d = rec(24, 1, 0, REMOVE, value=4)
        plan, merged = plan_for([a, b, c, d], structure="heap", n_priorities=2)
        assert merged[24].result == (8, "a")  # class 0 drains first
        assert plan.elements == [(1, 0, (16, "b")), (1, 1, (32, "c"))]
        firsts, lasts, counter, _, _ = plan.anchor
        assert firsts == (0, 0)
        assert lasts == (-1, 1)
        assert counter == 5

    def test_empty_heap_remove_is_bottom(self):
        d = rec(24, 1, 0, REMOVE, value=4)
        plan, merged = plan_for([d], structure="heap", n_priorities=2)
        assert merged[24].result is BOTTOM and merged[24].completed



# -- ops HTTP listener ---------------------------------------------------------


class _RecordingWriter:
    def __init__(self) -> None:
        self.data = b""
        self.closed = False

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


async def _serve_get(host, target: str) -> tuple[bytes, dict]:
    """One GET through the listener's handler, socket-free: the status
    line and the JSON body of the answer."""
    reader = asyncio.StreamReader()
    reader.feed_data(f"GET {target} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    reader.feed_eof()
    writer = _RecordingWriter()
    # the data port read the first four bytes to tell HTTP from frames
    await serve_http(host, await reader.readexactly(4), reader, writer)
    assert writer.closed
    head, _, body = writer.data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], json.loads(body)


def _get(host, target: str) -> tuple[bytes, dict]:
    return asyncio.run(_serve_get(host, target))


class TestOpsHttp:
    HOST = SimpleNamespace(tracer=SimpleNamespace(lookup=lambda req: None))

    @pytest.mark.parametrize(
        "target", ["/trace?req=abc", "/profile?seconds=abc", "/profile?top=x"])
    def test_a_malformed_query_answers_400(self, target):
        status, body = _get(self.HOST, target)
        assert status == b"HTTP/1.0 400 Bad Request"
        assert "is not" in body["error"]

    def test_a_well_formed_query_still_reaches_its_route(self):
        status, body = _get(self.HOST, "/trace?req=7")
        assert status == b"HTTP/1.0 404 Not Found"
        assert "req 7" in body["error"]

    def test_status_is_no_route(self):
        status, body = _get(self.HOST, "/status")
        assert status == b"HTTP/1.0 404 Not Found"
        assert "no route" in body["error"]


class TestOneHealthPayload:
    """``health`` is a host's one status answer: the frame (with or
    without the ``detail`` older callers send) and ``GET /health`` carry
    every field the deleted ``pong`` frame and ``/status`` route did."""

    #: what `pong` carried (its `joining` is `joining_pids`)
    PONG = {"host", "wired", "joining_pids", "draining", "map_version",
            "update_epoch"}
    #: what `/status` added to `/health`
    STATUS = {"hosts", "departed", "leaving", "pids", "joining_pids",
              "update_epoch", "log"}

    def test_frame_route_and_detail_answer_one_payload(self):
        from repro.net.server import HostConfig, NodeHost

        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2))
            host.control.note("wired for the test")
            sent = []
            conn = SimpleNamespace(send=sent.append)
            host._on_health(conn, {"op": "health"}, 0.0)
            host._on_health(conn, {"op": "health", "detail": "status"}, 0.0)
            route = await _serve_get(host, "/health")
            await host._async_stop()
            return sent, route

        (plain, detailed), (status, routed) = asyncio.run(scenario())
        assert status == b"HTTP/1.0 200 OK"
        assert plain.pop("op") == detailed.pop("op") == "health"
        assert set(plain) == set(detailed) == set(routed)
        assert self.PONG | self.STATUS <= set(routed)
        assert routed["hosts"] == {"0": ["127.0.0.1", 1]}
        assert routed["pids"] == [0, 1] and routed["joining_pids"] == []
        assert plain["log"][-1].endswith("wired for the test")
