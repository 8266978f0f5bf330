"""The control plane without a socket: clusters of
``repro.net.control.ControlPlane`` objects joined by an in-memory net.

Everything here used to be reachable only through multi-second ``-m
net`` runs of real processes: adoption of cluster maps, coordinator
succession, eviction → dump → rebuild, the hold queue, join and leave.
``Net`` stands in for the peer links (frames cross the real wire
codecs; the test decides what is lost, shelved or reordered), ``Host``
for ``NodeHost`` (it counts what the control plane asks of its data
plane), and the clock is whatever the test says it is.
"""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

import repro.net.control as control_module
from repro.core.requests import INSERT
from repro.net.control import ControlPlane, frame_handlers
from repro.net.membership import ClusterMap
from repro.net.records import NetOpRecord, RecordTable, decode_complete
from repro.net.server import HostConfig, NodeHost
from repro.net.transport import (
    CLIENT,
    FENCED,
    FENCED_DEDUP,
    FRAME_TYPES,
    HELD,
    FrameReader,
    encode_frame,
)

SLOTS = 8  # req_id % SLOTS is the origin host
HEARTBEAT = 0.25


class Conn:
    """The reply side of a connection."""

    def __init__(self) -> None:
        self.replies: list[dict] = []

    def send(self, frame: dict) -> None:
        self.replies.append(frame)

    @property
    def ops(self) -> list[str]:
        return [frame["op"] for frame in self.replies]


class Host:
    """A ``DataPlane`` that only counts, around a real control plane and
    a real record table."""

    def __init__(self, net: "Net", index: int, n_hosts: int) -> None:
        self.net = net
        self.index = index
        config = HostConfig(host_index=index, n_hosts=n_hosts,
                            n_processes=2 * n_hosts, id_slots=SLOTS)
        self.records = RecordTable(
            index, SLOTS,
            lambda host, frame: self._send(
                host, {**frame, "gen": self.control.gen}),
        )
        self.control = ControlPlane(config, self.records, self._send, self)
        self.update_epoch = 0
        self.links: set[int] = set()
        self.forwards: dict[int, int] = {}  # left by departed local actors
        self.running = False     # the shard has actors
        self.drain_running = False
        self.drops = 0
        self.respawns: list[tuple[int, list[int]]] = []  # (epoch, pids)
        self.drains = 0
        self.joins: list[list[int]] = []
        self.pushed: list[dict] = []
        self.msgs: list[dict] = []      # admitted `msg` frames, in order
        self.submits: list[dict] = []   # admitted submits, in order
        self.errors: list[str] = []
        self.stopped = False
        self.frame_table = frame_handlers(self, self.control)

    def _send(self, host: int, frame: dict) -> bool:
        if host not in self.links:
            return False
        self.net.post(self.index, host, frame)
        return True

    # -- DataPlane -------------------------------------------------------------
    def map_changed(self, cluster: ClusterMap) -> None:
        self.links = set(cluster.hosts) - {self.index}

    def drop(self) -> None:
        self.drops += 1
        self.running = self.drain_running = False
        self.forwards = {}

    def respawn(self, cluster, anchor, elements, reruns) -> int:
        pids = cluster.pids_of(self.index)
        self.respawns.append((cluster.recovery_epoch, pids))
        self.running = True
        return 3 * len(pids)

    def start_drain(self) -> None:
        self.drains += 1
        self.drain_running = True

    def start_joins(self, pids) -> None:
        self.joins.append(list(pids))

    def push_clients(self, frame: dict) -> None:
        self.pushed.append(frame)

    def note_error(self, where: str, detail: str) -> None:
        self.errors.append(f"{where}: {detail}")

    def stop(self) -> None:
        self.stopped = True

    def dispatch(self, conn, message: dict) -> None:
        """``NodeHost.dispatch``, minus everything that needs an actor."""
        handler, admission = self.frame_table[message["op"]]
        if self.control.admit(conn, message, admission):
            handler(conn, message, self.net.now)

    def _on_msg(self, conn, message: dict, now: float) -> None:
        self.msgs.append(message)

    def _on_complete(self, conn, message: dict, now: float) -> None:
        self.records.apply(message["req"], decode_complete(message))

    def _on_replica_put(self, conn, message: dict, now: float) -> None:
        req_id = self.records.put_replica(message["record"])
        if message.get("ack"):
            self._send(int(message["origin"]),
                       {"op": "replica_ack", "req": req_id})

    def _on_replica_ack(self, conn, message: dict, now: float) -> None:
        self.records.acked(int(message["req"]))

    def _on_submit(self, conn, message: dict, now: float) -> None:
        self.submits.append(message)

    # -- what a test does to a host ----------------------------------------------
    def ask(self, message: dict) -> Conn:
        """One frame from outside (operator, joiner, client)."""
        conn = Conn()
        self.dispatch(conn, message)
        return conn

    def submit_record(self, n: int) -> NetOpRecord:
        rec = NetOpRecord(n * SLOTS + self.index, self.index, n, INSERT,
                          f"e{self.index}-{n}", 0.0)
        self.records.open(rec)
        return rec

    @property
    def serving(self) -> bool:
        return self.control.wired and not self.control.recovering


class Net:
    """Frame queue between hosts, a clock, and the faults a test wants."""

    def __init__(self, n_hosts: int = 3, wire: bool = True) -> None:
        self.now = 100.0
        self.queue: list[tuple[int, int, dict]] = []   # (src, dest, frame)
        self.shelved: list[tuple[int, int, dict]] = []
        self.dead: set[int] = set()
        self.lose = lambda src, dest, frame: False
        self.shelve = lambda src, dest, frame: False
        self.sent: list[tuple[int, int, dict]] = []    # everything posted
        self.hosts = {i: Host(self, i, n_hosts) for i in range(n_hosts)}
        self.genesis = ClusterMap.genesis(
            {i: ("h", 1000 + i) for i in range(n_hosts)}, 2 * n_hosts, SLOTS)
        if wire:
            for host in self.hosts.values():
                self.wire(host)

    def wire(self, host: Host) -> None:
        host.running = True
        host.control.adopt(ClusterMap.from_json(self.genesis.to_json()),
                           self.now)

    def post(self, src: int, dest: int, frame: dict) -> None:
        blob = encode_frame(dict(frame))
        (decoded,) = FrameReader().feed(blob)
        self.sent.append((src, dest, decoded))
        if dest in self.dead or self.lose(src, dest, decoded):
            return
        if self.shelve(src, dest, decoded):
            self.shelved.append((src, dest, decoded))
        else:
            self.queue.append((src, dest, decoded))

    def pump(self) -> None:
        while self.queue:
            src, dest, frame = self.queue.pop(0)
            if dest not in self.dead:
                self.hosts[dest].dispatch(Conn(), frame)

    def release(self) -> None:
        """Deliver what was shelved, late."""
        self.queue += self.shelved
        self.shelved = []
        self.shelve = lambda src, dest, frame: False
        self.pump()

    def kill(self, index: int) -> None:
        self.dead.add(index)
        self.queue = [entry for entry in self.queue if entry[1] != index]

    @property
    def live(self) -> list[Host]:
        return [h for i, h in self.hosts.items()
                if i not in self.dead and not h.stopped]

    def run(self, seconds: float) -> None:
        """Let ``seconds`` pass: housekeeping every 0.05 s, a beat every
        heartbeat period, every frame delivered in between."""
        steps = round(seconds / 0.05)
        for _ in range(steps):
            self.now += 0.05
            beat = round(self.now / 0.05) % round(HEARTBEAT / 0.05) == 0
            for host in self.live:
                if beat:
                    host.control.beat(self.now)
                host.control.tick(self.now, host.forwards)
            self.pump()

    def sent_ops(self, op: str) -> list[tuple[int, int, dict]]:
        return [entry for entry in self.sent if entry[2]["op"] == op]

    def maps(self) -> set[tuple[int, int]]:
        return {(h.control.cluster.version, h.control.cluster.recovery_epoch)
                for h in self.live}


def settled(net: Net, gen: int) -> None:
    """Every live host serves under one map at generation ``gen``."""
    assert len(net.maps()) == 1, net.maps()
    for host in net.live:
        assert host.serving and host.control.gen == gen, host.index
        assert not host.control.held


# -- crashes ---------------------------------------------------------------------


class TestEviction:
    def test_follower_crash_one_rebuild_applied_once_everywhere(self):
        net = Net(4)
        net.run(1.0)
        net.kill(2)
        net.run(3.0)
        settled(net, 1)
        for host in net.live:
            cluster = host.control.cluster
            assert 2 not in cluster.hosts and cluster.departed[2] == 3
            assert host.drops == 1
            assert host.respawns == [(1, cluster.pids_of(host.index))]
            assert [e["host"] for e in host.control.evictions] == [2]
            assert host.control.evictions[0]["adopter"] == 3
            # clients hear of the eviction with the rebuilt map, not before
            assert host.pushed[-1]["map"]["recovery_epoch"] == 1
            assert all(frame["map"]["recovery_epoch"] == 0
                       for frame in host.pushed[:-1])
        assert len(net.sent_ops("rebuild")) == 2  # one plan, to both peers
        assert not net.sent_ops("evict") and "evict" not in FRAME_TYPES

    def test_coordinator_crash_the_next_lowest_acts(self):
        net = Net(3)
        net.run(1.0)
        net.kill(0)
        net.run(3.0)
        settled(net, 1)
        assert {h.control.cluster.coordinator for h in net.live} == {1}
        assert net.hosts[1].control.is_coordinator
        assert all(src == 1 for src, _dest, _f in net.sent_ops("rebuild"))
        for host in net.live:
            assert host.drops == 1 and len(host.respawns) == 1

    def test_two_host_cluster_survives_alone(self):
        net = Net(2)
        net.run(1.0)
        net.kill(1)
        net.run(2.0)
        settled(net, 1)
        (survivor,) = net.live
        assert survivor.respawns == [(1, [0, 2])]
        assert survivor.records.targets == []

    def test_lost_eviction_notice_is_said_again(self):
        net = Net(4)
        net.run(1.0)
        # host 2 never hears the first notice
        net.lose = lambda src, dest, frame: (
            dest == 2 and frame["op"] == "host_map")
        net.kill(3)
        net.run(1.6)
        assert net.hosts[0].control.recovering
        assert not net.hosts[2].control.recovering  # still in the old world
        net.lose = lambda src, dest, frame: False
        net.run(1.5)
        settled(net, 1)
        assert [h.drops for h in net.live] == [1, 1, 1]

    def test_rebuild_heals_a_host_that_missed_the_notice(self):
        net = Net(3)
        net.run(1.0)
        net.kill(2)
        net.run(3.0)
        settled(net, 1)
        rebuilt = net.hosts[0].control._rebuilt
        # a host still in the old world (same index, fresh state)
        late = net.hosts[1] = Host(net, 1, 3)
        net.wire(late)
        assert late.control.gen == 0 and not late.control.recovering
        late.dispatch(Conn(), rebuilt)
        assert late.serving and late.control.gen == 1
        assert late.drops == 1 and len(late.respawns) == 1
        assert late.control.evictions[0]["host"] == 2

    def test_duplicate_stale_and_repushed_rebuilds_are_noops(self):
        net = Net(3)
        net.run(1.0)
        net.kill(2)
        net.run(3.0)
        rebuilt = net.hosts[0].control._rebuilt
        for host in net.live:
            host.dispatch(Conn(), rebuilt)            # duplicate
            host.dispatch(Conn(), {**rebuilt, "gen": 0})  # stale
        settled(net, 1)
        assert [len(h.respawns) for h in net.live] == [1, 1]
        assert [h.drops for h in net.live] == [1, 1]

    def test_late_dump_is_answered_with_the_stored_rebuild(self):
        net = Net(3)
        net.run(1.0)
        # host 1's copy of the rebuild races a link reset
        net.lose = lambda src, dest, frame: (
            dest == 1 and frame["op"] == "rebuild")
        net.kill(2)
        net.run(1.7)
        assert net.hosts[0].serving and net.hosts[1].control.recovering
        net.lose = lambda src, dest, frame: False
        net.run(1.2)   # host 1 re-offers its dump
        settled(net, 1)
        assert len(net.sent_ops("rebuild")) == 2   # the original + the re-push
        assert len(net.hosts[1].respawns) == 1

    def test_second_eviction_inside_the_window_restarts_the_dump(self):
        net = Net(4)
        net.run(1.0)
        # the gen-1 rebuild reaches host 1 late; host 2 dies meanwhile
        net.shelve = lambda src, dest, frame: (
            dest == 1 and frame["op"] == "rebuild" and frame["gen"] == 1)
        net.kill(3)
        net.run(1.7)
        assert net.hosts[0].control.gen == 1
        assert net.hosts[1].control.recovering and net.hosts[1].control.gen == 0
        net.kill(2)
        net.run(3.0)
        assert net.shelved   # the plan, and its re-pushes to host 1's re-offers
        # generation 2 was collected from scratch and rebuilt without it
        assert net.hosts[0].control.gen == net.hosts[1].control.gen == 2
        assert net.hosts[1].respawns == [(2, net.hosts[1].control.cluster.pids_of(1))]
        assert net.hosts[1].drops == 2 and net.hosts[0].drops == 2
        gens = [f["gen"] for _s, dest, f in net.sent_ops("recover_dump")
                if _s == 1]
        assert gens[0] == 1 and gens[-1] == 2
        net.release()   # the gen-1 rebuild, at last
        settled(net, 2)
        assert len(net.hosts[1].respawns) == 1

    def test_crash_during_recovery_of_the_acting_coordinator(self):
        net = Net(4)
        net.run(1.0)
        net.lose = lambda src, dest, frame: frame["op"] == "recover_dump" and dest == 0
        net.kill(3)
        net.run(1.6)
        assert all(h.control.recovering for h in net.live)
        net.kill(0)    # dies holding nobody's dump
        net.lose = lambda src, dest, frame: False
        net.run(4.0)
        settled(net, 2)
        assert {h.index for h in net.live} == {1, 2}
        assert net.hosts[1].control.is_coordinator

    def test_a_falsely_evicted_host_stops(self):
        net = Net(3)
        net.run(1.0)
        evicted = ClusterMap.from_json(net.genesis.to_json())
        evicted.evict_host(2, adopter=0)
        host = net.hosts[2]
        host.dispatch(Conn(), {"op": "host_map", "map": evicted.to_json()})
        assert host.stopped and host.drops == 0 and not host.respawns
        # nor does a rebuild that does not name it revive it
        other = net.hosts[1]
        gone = ClusterMap.from_json(net.genesis.to_json())
        gone.evict_host(1, adopter=2)
        other.dispatch(Conn(), {
            "op": "rebuild", "gen": 1, "map": gone.to_json(), "records": [],
            "anchor": [], "elements": [], "reruns": []})
        assert other.stopped and not other.respawns

    def test_eviction_hands_custody_to_the_adopter(self):
        net = Net(3)
        net.run(0.5)
        rec = net.hosts[1].submit_record(1)
        rec.value = 7
        net.pump()
        assert rec.req_id in net.hosts[2].records.replicas
        net.kill(1)
        net.run(3.0)
        settled(net, 1)
        adopter = net.hosts[2]
        assert adopter.control.cluster.departed[1] == 2
        assert adopter.records.custody[rec.req_id].value == 7
        assert rec.req_id not in net.hosts[0].records.custody
        assert not adopter.records.replicas   # purged, then resynced by 0


# -- the hold queue --------------------------------------------------------------


def msg(gen: int, tag: int) -> dict:
    return {"op": "msg", "dest": tag, "action": 1, "gen": gen, "payload": []}


class TestHoldQueue:
    def test_the_admission_column_names_the_frames_each_rule_gates(self):
        def admitted_by(*rules):
            return {op for op, spec in FRAME_TYPES.items()
                    if spec.admission in rules}

        # what waits for a serving shard without a generation stamp
        assert admitted_by(HELD, CLIENT) == {
            "submit", "submit_batch", "join", "join_commit", "leave",
            "retire"}
        assert admitted_by(CLIENT) == {"submit", "submit_batch"}
        assert admitted_by(FENCED, FENCED_DEDUP) == {
            "msg", "complete", "replica_put"}
        assert admitted_by(FENCED_DEDUP) == {"msg", "complete"}

    def test_pre_wire_frames_wait_for_the_map(self):
        net = Net(2, wire=False)
        host = net.hosts[0]
        host.dispatch(Conn(), msg(0, 1))
        host.dispatch(Conn(), {"op": "submit", "req": 9})
        host.dispatch(Conn(), msg(0, 2))
        assert not host.msgs and not host.submits
        assert len(host.control.held) == 3
        assert host.ask({"op": "map"}).ops == ["error"]
        # control frames that are not held do no harm before the map
        host.dispatch(Conn(), {"op": "heartbeat", "host": 1})
        host.dispatch(Conn(), {"op": "host_map",
                               "map": net.genesis.to_json()})
        assert not host.control.wired
        net.wire(host)
        assert [m["dest"] for m in host.msgs] == [1, 2]
        assert [s["req"] for s in host.submits] == [9]
        assert not host.control.held

    def test_older_generation_dropped_newer_held_in_arrival_order(self):
        net = Net(3)
        net.run(1.0)
        host = net.hosts[0]
        host.dispatch(Conn(), msg(1, 10))     # from a peer ahead of us
        host.dispatch(Conn(), msg(0, 11))     # current: handled at once
        host.dispatch(Conn(), msg(1, 12))
        assert [m["dest"] for m in host.msgs] == [11]
        net.shelve = lambda src, dest, frame: (
            frame["op"] == "recover_dump" and src == 1)  # keep the window open
        net.kill(2)
        net.run(1.6)
        assert host.control.recovering
        host.dispatch(Conn(), msg(0, 13))     # the dead generation: dropped
        host.dispatch(Conn(), msg(1, 14))
        host.dispatch(Conn(), {"op": "submit", "req": 5})
        host.dispatch(Conn(), msg(2, 15))     # ahead even of this recovery
        assert [m["dest"] for m in host.msgs] == [11]
        net.release()
        settled_but_for = [m["dest"] for m in host.msgs]
        assert settled_but_for == [11, 10, 12, 14]
        assert [s["req"] for s in host.submits] == [5]
        assert [m["dest"] for _c, m in host.control.held] == [15]
        host.dispatch(Conn(), msg(0, 16))
        assert [m["dest"] for m in host.msgs][-1] == 14  # stale now

    def test_admit_allocates_nothing_for_an_admissible_frame(self):
        net = Net(2)
        control = net.hosts[0].control
        frame = msg(0, 1)
        assert control.admit(None, frame, FENCED_DEDUP) and not control.held
        assert control.admit(None, {"op": "submit"}, CLIENT)
        assert not control.held


# -- membership ------------------------------------------------------------------


def join(net: Net, pids: int = 2) -> tuple[Host, Conn]:
    """Reserve at the coordinator and boot the joiner from ``join_ok``."""
    coordinator = net.hosts[min(net.hosts[i].control.cluster.coordinator
                                for i in net.hosts if i not in net.dead)]
    reply = coordinator.ask({"op": "join", "pids": pids})
    (ok,) = reply.replies
    assert ok["op"] == "join_ok"
    joiner = net.hosts[ok["host"]] = Host(net, ok["host"], len(net.hosts))
    joiner.running = True
    joiner.control.adopt(ClusterMap.from_json(ok["map"]), net.now)
    return joiner, reply


def commit(net: Net, coordinator: Host, joiner: Host) -> Conn:
    return coordinator.ask({"op": "join_commit", "host": joiner.index,
                            "address": ["h", 1000 + joiner.index]})


class TestMembership:
    def test_join_reserve_commit_broadcast(self):
        net = Net(3)
        net.run(0.5)
        assert net.hosts[1].ask({"op": "join"}).replies[0]["coordinator"] == 0
        joiner, _ = join(net)
        assert joiner.index == 3 and joiner.serving
        assert 3 not in net.hosts[0].control.cluster.hosts   # not yet
        assert commit(net, net.hosts[0], joiner).ops == ["join_done"]
        net.pump()
        settled(net, 0)
        for host in net.live:
            cluster = host.control.cluster
            assert cluster.pids_of(3) == [6, 7] and 3 in cluster.hosts
            assert 3 in host.links or host.index == 3
        assert net.hosts[0].joins == [[6, 7]]
        assert sorted(net.hosts[0].control.detector.watched()) == [1, 2, 3]
        assert commit(net, net.hosts[0], joiner).ops == ["error"]  # once only
        net.run(2.0)   # beacons flow both ways: nobody is suspected
        assert all(not h.control.detector.suspects() for h in net.live)

    def test_forwards_reach_the_map_from_any_host(self):
        net = Net(3)
        net.run(0.5)
        net.hosts[2].forwards = {20: 3}
        net.hosts[0].forwards = {1: 4}
        net.run(0.2)
        settled(net, 0)
        for host in net.live:
            assert host.control.cluster.forwards == {20: 3, 1: 4}
        before = net.hosts[0].control.cluster.version
        net.run(0.5)   # acknowledged by the map: not pushed again
        assert net.hosts[0].control.cluster.version == before

    def test_leave_then_retire_hands_custody_to_the_coordinator(self):
        net = Net(3)
        net.run(0.5)
        drainer = net.hosts[2]
        rec = drainer.submit_record(1)
        assert net.hosts[1].ask({"op": "leave", "host": 0}).ops == ["error"]
        assert net.hosts[1].ask({"op": "leave", "host": 9}).ops == ["error"]
        assert drainer.ask({"op": "leave", "host": 2}).ops == ["leaving"]
        assert drainer.control.draining and drainer.drains == 1
        assert drainer.ask({"op": "leave", "host": 2}).ops == ["leaving"]
        assert drainer.drains == 1
        net.run(0.2)
        assert all(h.control.cluster.leaving == {2} for h in net.live)
        assert net.hosts[0].control.cluster.live_pids() == [0, 1, 3, 4]
        rec.completed = True
        net.pump()
        retired = net.hosts[0].ask({
            "op": "retire", "host": 2, "records": drainer.records.dump(),
            "errors": ["[host 2] boom"], "forwards": {"8": 1}})
        assert retired.ops == ["retired"]
        net.kill(2)   # the drained process exits
        net.pump()
        settled(net, 0)
        coordinator = net.hosts[0]
        assert coordinator.records.custody[rec.req_id].completed
        assert coordinator.control.adopted_errors == ["[host 2] boom"]
        for host in net.live:
            cluster = host.control.cluster
            assert 2 not in cluster.hosts and cluster.departed == {2: 0}
            assert cluster.forwards == {8: 1} and not cluster.leaving
            assert cluster.complete_target(2) == 0
        # a retry whose first answer was lost is answered again, changes nothing
        version = coordinator.control.cluster.version
        again = coordinator.ask({"op": "retire", "host": 2, "records": []})
        assert again.ops == ["retired"]
        assert coordinator.control.cluster.version == version

    def test_leave_through_the_coordinator_is_relayed(self):
        net = Net(3)
        net.run(0.5)
        assert net.hosts[0].ask({"op": "leave", "host": 1}).ops == ["leaving"]
        net.pump()
        assert net.hosts[1].control.draining and net.hosts[1].drains == 1
        assert net.hosts[2].ask({"op": "leave", "host": 1}).ops == ["error"]

    def test_no_per_host_structure_names_a_departed_index(self):
        net = Net(4)
        net.run(0.5)
        net.hosts[3].ask({"op": "leave", "host": 3})
        net.run(0.2)
        net.hosts[0].ask({"op": "retire", "host": 3, "records": []})
        net.kill(3)
        net.kill(2)
        net.run(3.0)
        settled(net, 1)
        for host in net.live:
            control = host.control
            for gone in (2, 3):
                assert gone not in host.links
                assert gone not in control.detector.watched()
                assert gone not in control.detector.suspects()
                assert gone not in control._dumps
                assert gone not in control._reservations
                assert gone not in host.records.targets
                assert gone not in control.cluster.hosts
                assert gone not in control.cluster.leaving


class TestChurnMeetsCrash:
    """The interleavings three variables and three lists could not get
    right."""

    def test_an_eviction_cancels_a_drain_and_leave_can_be_reissued(self):
        # the scenario of ISSUE 17: kill host 1, ask host 3 to leave
        net = Net(4)
        net.run(1.0)
        drainer = net.hosts[3]
        net.kill(1)
        assert drainer.ask({"op": "leave", "host": 3}).ops == ["leaving"]
        net.run(0.3)
        assert drainer.drain_running
        assert net.hosts[0].control.cluster.leaving == {3}
        drainer.forwards = {30: 2}   # one of its nodes already left
        stale_retire = {"op": "retire", "host": 3, "records": [],
                        "forwards": {"30": 2}}
        net.run(3.0)
        settled(net, 1)
        # the respawned shard serves as a full member: nothing says "draining"
        assert not drainer.control.draining and not drainer.drain_running
        assert drainer.running and len(drainer.respawns) == 1
        for host in net.live:
            assert not host.control.cluster.leaving
            assert not host.control.cluster.forwards
            assert 3 in host.control.cluster.hosts
        # a retire sent before the eviction landed is refused
        assert net.hosts[0].ask(stale_retire).ops == ["error"]
        assert 3 in net.hosts[0].control.cluster.hosts
        # and the re-issued leave drains it for good
        assert drainer.ask({"op": "leave", "host": 3}).ops == ["leaving"]
        assert drainer.drains == 2 and drainer.drain_running
        net.run(0.2)
        assert net.hosts[0].control.cluster.leaving == {3}
        assert net.hosts[0].ask(stale_retire).ops == ["retired"]
        net.kill(3)
        net.pump()
        settled(net, 1)
        assert all(3 not in h.control.cluster.hosts for h in net.live)

    def test_leave_and_retire_arriving_mid_recovery_wait(self):
        net = Net(4)
        net.run(1.0)
        net.shelve = lambda src, dest, frame: (
            frame["op"] == "recover_dump" and src == 2)   # keep the window open
        net.kill(1)
        net.run(1.6)
        assert all(h.control.recovering for h in net.live)
        asked = net.hosts[3].ask({"op": "leave", "host": 3})
        assert asked.ops == [] and not net.hosts[3].control.draining
        net.release()
        settled(net, 1)
        assert asked.ops == ["leaving"] and net.hosts[3].control.draining
        assert net.hosts[3].drains == 1 and net.hosts[3].drain_running

    def test_join_commit_landing_mid_recovery_is_held(self):
        """Decided, not assumed: published at once, the map would name a
        host that never entered recovery and the rebuild would wait for
        its dump forever."""
        net = Net(3)
        net.run(1.0)
        joiner, _ = join(net)
        net.shelve = lambda src, dest, frame: (
            frame["op"] == "recover_dump" and src == 1)
        net.kill(2)
        net.run(1.6)
        coordinator = net.hosts[0]
        assert coordinator.control.recovering
        committed = commit(net, coordinator, joiner)
        assert committed.ops == []     # no answer yet
        assert joiner.index not in coordinator.control.cluster.hosts
        late_join = coordinator.ask({"op": "join"})
        assert late_join.ops == []
        net.release()
        net.run(0.5)
        assert committed.ops == ["join_done"] and late_join.ops == ["join_ok"]
        settled(net, 1)
        assert joiner.serving and joiner.drops == 0 and not joiner.respawns
        assert not joiner.stopped
        # the survivors rebuilt without it; it enters through the JOINs
        assert coordinator.respawns == [(1, [0, 3])]
        assert coordinator.joins == [[6, 7]]
        for host in net.live:
            assert joiner.index in host.control.cluster.hosts

    def test_a_joiner_booted_before_an_eviction_is_born_into_the_new_generation(self):
        net = Net(3)
        net.run(1.0)
        joiner, _ = join(net)
        assert joiner.control.gen == 0
        net.kill(2)
        net.run(3.0)
        assert net.hosts[0].control.gen == 1
        assert commit(net, net.hosts[0], joiner).ops == ["join_done"]
        net.pump()
        settled(net, 1)
        assert joiner.drops == 0 and not joiner.stopped

    def test_crash_of_a_committed_joiner(self):
        net = Net(3)
        net.run(1.0)
        joiner, _ = join(net)
        commit(net, net.hosts[0], joiner)
        net.pump()
        net.kill(joiner.index)
        net.run(3.0)
        settled(net, 1)
        assert all(joiner.index not in h.control.cluster.hosts
                   for h in net.live)


# -- what NodeHost keeps: links ----------------------------------------------------


class TestLinks:
    def test_a_departed_host_is_forgotten_with_its_link(self):
        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=3, n_processes=3))
            genesis = ClusterMap.genesis(
                {i: ("127.0.0.1", 1) for i in range(3)}, 3)
            host.wire_genesis(genesis)
            host.handle_frame(None, {"op": "complete", "req": 4, "src": 1,
                                     "seq": 1, "gen": 0, "value": 1})
            host.handle_frame(None, {"op": "complete", "req": 5, "src": 2,
                                     "seq": 1, "gen": 0, "value": 1})
            assert set(host.resends.seen) == {1, 2} and set(host.peers) == {1, 2}
            retired = genesis.copy()
            retired.start_drain(1)
            retired.retire_host(1, 0, {})
            host.control.adopt(retired, 0.0)
            named = (set(host.resends.seen), set(host.peers),
                     set(host.control.detector.watched()),
                     set(host.records.targets))
            await host._async_stop()
            return named

        for named in asyncio.run(scenario()):
            assert named == {2}


# -- what NodeHost keeps: the frame table ------------------------------------------


class TestFrameTable:
    def test_every_op_has_at_most_one_handler(self):
        def handled(cls):
            return {name[4:] for name in dir(cls) if name.startswith("_on_")}

        host_ops, control_ops = handled(NodeHost), handled(ControlPlane)
        assert not host_ops & control_ops
        assert host_ops | control_ops <= set(FRAME_TYPES)

        class Twin:
            def _on_ping(self, conn, message, now): ...

        with pytest.raises(ValueError, match="ping"):
            frame_handlers(Twin(), Twin())

    def test_dispatch_is_a_lookup_not_an_op_chain(self):
        (dispatch,) = [func for func in _functions(NET / "server.py")
                       if func.name == "dispatch"]
        compared = [ast.unparse(node) for node in ast.walk(dispatch)
                    if isinstance(node, ast.Compare)
                    and "op" in {ast.unparse(side) for side in
                                 [node.left, *node.comparators]}]
        assert not compared

    def test_a_foreign_action_code_reaches_no_actor(self, monkeypatch):
        """``Node.handle`` indexes the catalog unchecked, so the host
        refuses a ``msg`` whose ``action`` is no code of it: -1 would run
        the last row's handler, and ``True`` is ``A_SERVE``."""
        from repro.core.actions import A_WAKE, CATALOG
        from repro.core.protocol import Node

        seen = []
        monkeypatch.setattr(Node, "handle", lambda node, action, payload:
                            seen.append((node.vid, action)))

        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2))
            for action in (-1, len(CATALOG), True, "0", A_WAKE):
                host.handle_frame(Conn(), {"op": "msg", "dest": 1, "gen": 0,
                                           "action": action, "payload": []})
            delivered = list(seen)  # before the loop runs any wave
            await host._async_stop()
            return delivered, host.errors

        delivered, errors = asyncio.run(scenario())
        assert delivered == [(1, A_WAKE)]
        assert len(errors) == 4 and all("no actor message" in e for e in errors)
        assert len(CATALOG) == 32


# -- structure, pinned -------------------------------------------------------------

NET = Path(control_module.__file__).parent
MAP_FIELDS = set(ClusterMap.__slots__)


def _functions(path: Path):
    for func in ast.walk(ast.parse(path.read_text())):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield func


def _assigned(func):
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            yield from ((target, node.value) for target in node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield node.target, node.value


class TestStructure:
    def test_control_module_has_no_socket_and_no_loop(self):
        imported = set()
        for node in ast.walk(ast.parse((NET / "control.py").read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert not {"asyncio", "socket", "repro.net.server"} & imported

    def test_one_function_assigns_a_hosts_cluster_map(self):
        sites = set()
        for path in sorted(NET.glob("*.py")):
            for func in _functions(path):
                for target, value in _assigned(func):
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "cluster"
                            and not (isinstance(value, ast.Constant)
                                     and value.value is None)):
                        sites.add(f"{path.name}:{func.name}")
        # the client follows the maps hosts push; it is not a host
        assert sites == {"control.py:adopt", "client.py:_apply_map_json"}

    def test_no_cluster_map_field_is_written_outside_membership(self):
        writers = set()
        mutators = {"add", "discard", "clear", "update", "pop", "setdefault",
                    "remove"}
        for path in sorted(NET.glob("*.py")):
            if path.name == "membership.py":
                continue
            tree = ast.parse(path.read_text())
            for func in _functions(path):
                for target, _value in _assigned(func):
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if (isinstance(target, ast.Attribute)
                            and target.attr in MAP_FIELDS
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr == "cluster"):
                        writers.add(f"{path.name}:{func.name}")
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in mutators
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr in MAP_FIELDS
                        and isinstance(node.func.value.value, ast.Attribute)
                        and node.func.value.value.attr == "cluster"):
                    writers.add(f"{path.name}:{node.func.value.attr}")
        assert not writers

    def test_one_state_one_queue_no_evict(self):
        sources = {path.name: path.read_text()
                   for path in sorted(NET.parent.rglob("*.py"))}
        for name, text in sources.items():
            for gone in ("_recovering", "_recover_gen", "_pre_wire",
                         "_recover_buffer", "_parked_submits", '"evict"'):
                assert gone not in text, (name, gone)
        protocol = (NET.parents[2] / "docs" / "PROTOCOL.md").read_text()
        assert "#### `evict`" not in protocol
        from tests.net.test_codec_props import SAMPLE_FRAMES
        assert "evict" not in SAMPLE_FRAMES and "evict" not in FRAME_TYPES

    def test_nodehost_forwards_nothing_to_the_control_plane(self):
        """Moved and deleted, not wrapped: no ``NodeHost`` method whose
        whole body is one call on ``self.control``."""
        tree = ast.parse((NET / "server.py").read_text())
        (host,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "NodeHost"]
        shims = []
        for func in host.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = [stmt for stmt in func.body
                    if not (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant))]
            if len(body) != 1:
                continue
            call = getattr(body[0], "value", None)
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Attribute)
                    and call.func.value.attr == "control"):
                shims.append(func.name)
        assert not shims
        control_names = {func.name for func in _functions(NET / "control.py")}
        host_names = {func.name for func in host.body
                      if isinstance(func, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))}
        # the data-plane interface is the only vocabulary they share
        assert host_names & control_names <= {
            "__init__", "map_changed", "drop", "respawn", "start_drain",
            "start_joins", "push_clients", "dispatch", "note_error", "stop"}
