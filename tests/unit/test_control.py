"""The control plane without a socket: clusters of
``repro.net.control.ControlPlane`` objects joined by an in-memory net.

Everything here used to be reachable only through multi-second ``-m
net`` runs of real processes: adoption of cluster maps, coordinator
succession, eviction → dump → rebuild, the hold queue, join and leave.
``Net`` stands in for the peer links (frames cross the real wire
codec; the test decides what is lost, shelved or reordered), ``Host``
for ``NodeHost`` (it counts what the control plane asks of its data
plane), and the clock is whatever the test says it is.
"""

from __future__ import annotations

import ast
import asyncio
import time
from pathlib import Path

import pytest

import repro.net.control as control_module
from repro.core.requests import INSERT
from repro.net.control import ControlPlane, frame_handlers
from repro.net.link import FOLD_DONES, Pipe
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
from repro.overlay.ldb import MIDDLE, vid_of

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
        self.records = RecordTable(index, SLOTS, self._send)
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
        ack, unheld = self.records.put_mirror(message)
        self.errors += [f"replica_put: unheld {req_id}" for req_id in unheld]
        if ack is not None:
            self._send(int(message["origin"]), ack)

    def _on_replica_ack(self, conn, message: dict, now: float) -> None:
        self.records.acked(message["reqs"])

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
        host.control.adopt(self.genesis.copy(), self.now)

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
        """Deliver until nothing is queued; replica rows a table holds
        are flushed before each delivery, as a peer link's write step
        flushes them."""
        while True:
            for host in self.live:
                host.records.flush()
            if not self.queue:
                return
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
            assert host.pushed[-1]["map"].recovery_epoch == 1
            assert all(frame["map"].recovery_epoch == 0
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
        assert survivor.respawns == [(1, net.genesis.pids_of(0))]
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
        evicted = net.genesis.copy()
        evicted.evict_host(2, adopter=0)
        host = net.hosts[2]
        host.dispatch(Conn(), {"op": "host_map", "map": evicted})
        assert host.stopped and host.drops == 0 and not host.respawns
        # nor does a rebuild that does not name it revive it
        other = net.hosts[1]
        gone = net.genesis.copy()
        gone.evict_host(1, adopter=2)
        other.dispatch(Conn(), {
            "op": "rebuild", "gen": 1, "map": gone, "records": [],
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
        assert rec.req_id in adopter.records.custody
        assert adopter.records.get(rec.req_id).value == 7
        assert rec.req_id not in net.hosts[0].records.custody
        assert not adopter.records.replicas   # purged, then resynced by 0


    def test_the_coordinators_own_rebuild_shares_no_record_with_its_table(self):
        """The acting coordinator applies its own rebuild in-process and
        keeps the frame to push again to a host that missed it; what it
        folds into its table is a copy, so a fact learned later does not
        rewrite the kept frame."""
        net = Net(3)
        net.run(0.5)
        rec = net.hosts[2].submit_record(1)
        rec.value = 7
        net.pump()
        net.kill(2)
        net.run(3.0)
        settled(net, 1)
        coordinator = net.hosts[0]
        assert coordinator.control.cluster.departed[2] == 0  # custody here
        table = coordinator.records
        kept = coordinator.control._rebuilt["records"]
        held = [held for store in (table.local, table.custody, table.replicas)
                for held in store.live.values()]
        assert rec.req_id in table.custody
        assert not {id(r) for r in kept} & {id(h) for h in held}
        (sent,) = [r for r in kept if r.req_id == rec.req_id]
        assert sent.value == 7 and not sent.local_match
        table.apply(rec.req_id, (None, None, True, False))
        assert table.get(rec.req_id).local_match
        assert not sent.local_match


def refuse(net: Net, victim: int, *hosts: int) -> None:
    """Each of ``hosts``' links to ``victim`` has a redial refused, in
    turn, and every frame that sends is delivered: no beat, no tick."""
    for index in hosts:
        net.hosts[index].control.dialed(victim, True, net.now)
        net.pump()


def refused_lines(host: Host) -> list[str]:
    return [line for line in host.control.log
            if "suspecting host" in line and "connection refused" in line]


class TestRefusal:
    """A refused dial suspects at once and reaches the acting coordinator
    at once; eviction still wants a second witness."""

    def test_two_refusals_evict_a_follower_with_no_beat(self):
        net = Net(3)
        net.run(0.5)
        net.kill(2)
        refuse(net, 2, 1)       # the witness first: 0 does not suspect yet
        assert 2 in net.hosts[0].control.cluster.hosts
        refuse(net, 2, 0)
        settled(net, 1)
        for host in net.live:
            assert host.control.cluster.departed == {2: 0}
            assert len(refused_lines(host)) == 1
            assert not any("silent for" in line for line in host.control.log)

    def test_two_refusals_evict_the_coordinator_with_no_beat(self):
        net = Net(3)
        net.run(0.5)
        net.kill(0)
        refuse(net, 0, 1)       # the next-lowest, acting, waits for a witness
        assert 0 in net.hosts[1].control.cluster.hosts
        refuse(net, 0, 2, 2)    # a second redial is no second report
        settled(net, 1)
        assert net.hosts[1].control.is_coordinator
        assert len(net.sent_ops("suspect")) == 1
        assert [len(refused_lines(host)) for host in net.live] == [1, 1]

    def test_on_three_hosts_one_refusal_waits_for_a_witness(self):
        net = Net(3)
        net.run(0.5)
        net.kill(2)
        refuse(net, 2, 0)
        # a frame it sent before it died does not clear the suspicion
        net.hosts[0].dispatch(Conn(), {"op": "heartbeat", "host": 2})
        net.run(0.5)
        coordinator = net.hosts[0].control
        assert coordinator.detector.is_suspect(2)
        assert 2 in coordinator.cluster.hosts
        net.run(0.75)           # host 1's silence path is the witness
        settled(net, 1)
        assert any("silent for" in line for line in net.hosts[1].control.log)

    def test_a_refusal_reported_by_a_retiree_suspects_nobody(self):
        net = Net(4)
        net.run(0.5)
        net.hosts[3].ask({"op": "leave", "host": 3})
        net.run(0.2)
        net.hosts[0].ask({"op": "retire", "host": 3, "records": []})
        net.pump()
        assert 3 not in net.hosts[0].control.cluster.hosts
        # the retiree lingers under the map it left by; a link of its
        # is refused, and it reports that to the coordinator
        assert 3 in net.hosts[3].control.cluster.hosts
        net.kill(2)
        refuse(net, 2, 3)
        assert net.sent_ops("suspect")[-1][:2] == (3, 0)
        refuse(net, 2, 0)       # the coordinator's own refusal
        assert 2 in net.hosts[0].control.cluster.hosts  # no witness yet
        # the retiree exits and its port refuses the survivors: nobody
        # watches it any more, so nobody suspects it
        net.kill(3)
        refuse(net, 3, 0, 1)
        assert not any(refused_lines(net.hosts[1]))
        assert net.hosts[0].control.detector.suspects() == [2]


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
                               "map": net.genesis})
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
    joiner.control.adopt(ok["map"], net.now)
    return joiner, reply


def commit(net: Net, coordinator: Host, joiner: Host) -> Conn:
    return coordinator.ask({"op": "join_commit", "host": joiner.index,
                            "address": ["h", 1000 + joiner.index]})


#: ``host`` values a membership frame must not be read as naming a host
#: by (``True == 1``, and ``int("2")`` would drain host 2)
_MISSING = object()
_BAD_HOSTS = [None, "x", "2", True, _MISSING]
_BAD_HOST_IDS = ["none", "word", "digits", "bool", "missing"]


def _naming(host, frame: dict, key: str = "host") -> dict:
    """``frame`` with ``key`` set to ``host``, or without ``key``."""
    if host is _MISSING:
        return {k: v for k, v in frame.items() if k != key}
    return {**frame, key: host}


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
        assert net.hosts[0].control.cluster.live_pids() == sorted(
            net.genesis.pids_of(0) + net.genesis.pids_of(1))
        rec.completed = True
        net.pump()
        retired = net.hosts[0].ask({
            "op": "retire", "host": 2, "records": drainer.records.dump(),
            "errors": ["[host 2] boom"], "forwards": {8: 1}})
        assert retired.ops == ["retired"]
        net.kill(2)   # the drained process exits
        net.pump()
        settled(net, 0)
        coordinator = net.hosts[0]
        assert coordinator.records.get(rec.req_id).completed
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


    @pytest.mark.parametrize("pids", [
        "3", True, None, 1.5, 0, -2,
        # past what one frame's map holds: no later host_map would encode
        control_module.MAX_FRAME_BYTES // control_module._PID_ENTRY_BYTES,
    ])
    def test_a_join_with_bad_pids_is_refused_before_a_counter_moves(
            self, pids):
        net = Net(3)
        net.run(0.5)
        coordinator = net.hosts[0]
        before = coordinator.control.cluster
        reply = coordinator.ask({"op": "join", "pids": pids})
        (error,) = reply.replies
        assert error["op"] == "error"
        assert error["message"].startswith("join pids must be an int in [1, ")
        after = coordinator.control.cluster
        assert after is before and (after.next_host, after.next_pid) == (3, 6)
        assert not coordinator.control._reservations
        joiner, _ = join(net)   # the next well-formed join is host 3
        assert joiner.index == 3

    @pytest.mark.parametrize("host, address", [
        ("3", ["h", 1003]),
        (3.0, ["h", 1003]),
        (None, ["h", 1003]),
        (3, [7, 1003]),
        (3, ["h", "1003"]),
        (3, ["h", True]),
        (3, ["h", 0]),
        (3, ["h", 65536]),
        (3, ["h"]),
        (3, "h:1003"),
        (3, None),
    ])
    def test_a_join_commit_with_a_bad_host_or_address_is_refused(
            self, host, address):
        net = Net(3)
        net.run(0.5)
        joiner, _ = join(net)
        coordinator = net.hosts[0]
        version = coordinator.control.cluster.version
        reply = coordinator.ask(
            {"op": "join_commit", "host": host, "address": address})
        assert reply.ops == ["error"]
        net.pump()
        assert coordinator.control.cluster.version == version
        assert not coordinator.joins and not net.sent_ops("host_map")
        # the reservation stands: a well-formed commit still lands
        assert commit(net, coordinator, joiner).ops == ["join_done"]
        net.pump()
        assert all(h.control.cluster.hosts[3] == ("h", 1003) for h in net.live)


    @pytest.mark.parametrize("host", _BAD_HOSTS, ids=_BAD_HOST_IDS)
    def test_a_leave_or_retire_naming_no_int_host_is_refused(self, host):
        net = Net(3)
        net.run(0.5)
        coordinator, drainer = net.hosts[0], net.hosts[2]
        version = coordinator.control.cluster.version
        for asked in (coordinator, drainer):
            leave = asked.ask(_naming(host, {"op": "leave"}))
            assert leave.ops == ["error"]
        retire = coordinator.ask(_naming(
            host, {"op": "retire", "records": [], "errors": ["boom"]}))
        assert retire.ops == ["error"]
        net.run(0.2)
        assert not any(h.drains or h.control.draining for h in net.live)
        assert not net.sent_ops("leave")
        assert coordinator.control.cluster.version == version
        assert not coordinator.control.adopted_errors

    @pytest.mark.parametrize("host", _BAD_HOSTS, ids=_BAD_HOST_IDS)
    def test_a_heartbeat_naming_no_int_host_is_dropped(self, host):
        net = Net(3)
        net.run(0.5)
        detector = net.hosts[0].control.detector
        heard = dict(detector._last_heard)
        net.now += 1.0
        net.hosts[0].dispatch(Conn(), _naming(host, {"op": "heartbeat"}))
        assert detector._last_heard == heard


class TestRecoveryFrameFields:
    """A peer's ``recover_dump``, ``rebuild`` or ``suspect`` whose host,
    generation or epoch is no int (a bool neither) is noted and dropped
    before any state moves."""

    @staticmethod
    def recovering(net: Net) -> None:
        """Host 3 dies; the coordinator waits on dumps that never come
        and host 1's copy of any rebuild is lost."""
        net.run(1.0)
        net.lose = lambda src, dest, frame: (
            (frame["op"] == "recover_dump" and dest == 0)
            or (frame["op"] == "rebuild" and dest == 1))
        net.kill(3)
        net.run(1.6)
        assert all(h.control.recovering for h in net.live)

    @pytest.mark.parametrize("key", ["gen", "host", "epoch"])
    @pytest.mark.parametrize("bad", _BAD_HOSTS, ids=_BAD_HOST_IDS)
    def test_a_bad_recover_dump_is_filed_under_no_host(self, key, bad):
        net = Net(4)
        self.recovering(net)
        coordinator = net.hosts[0]
        offered = dict(coordinator.control._dumps)
        frame = {"op": "recover_dump", "gen": 1, "host": 1, "epoch": 0,
                 "records": []}
        coordinator.dispatch(Conn(), _naming(bad, frame, key))
        assert coordinator.control._dumps == offered
        assert coordinator.control.recovering
        assert coordinator.errors[-1].startswith("recover_dump: ")

    @pytest.mark.parametrize("bad", _BAD_HOSTS, ids=_BAD_HOST_IDS)
    def test_a_rebuild_with_a_bad_gen_is_not_applied(self, bad):
        net = Net(4)
        self.recovering(net)
        net.lose = lambda src, dest, frame: frame["op"] == "rebuild" and dest == 1
        net.run(1.5)  # host 0 plans, host 1 never hears
        planned = net.hosts[0].control._rebuilt
        assert planned is not None and planned["gen"] == 1
        late = net.hosts[1]
        late.dispatch(Conn(), _naming(bad, planned, "gen"))
        assert late.control.recovering and late.control.gen == 0
        assert not late.respawns
        assert late.errors[-1].startswith("rebuild: ")
        late.dispatch(Conn(), planned)  # the well-formed one lands
        assert late.serving and late.control.gen == 1

    @pytest.mark.parametrize("key", ["host", "by"])
    @pytest.mark.parametrize("bad", _BAD_HOSTS, ids=_BAD_HOST_IDS)
    def test_a_suspect_naming_no_int_host_witnesses_nothing(self, key, bad):
        net = Net(3)
        net.run(0.5)
        coordinator = net.hosts[0]
        net.kill(1)
        net.lose = lambda src, dest, frame: frame["op"] == "suspect"
        net.run(1.25)
        detector = coordinator.control.detector
        assert detector.is_suspect(1) and not detector._corroborators
        coordinator.dispatch(
            Conn(), _naming(bad, {"op": "suspect", "host": 1, "by": 2}, key))
        assert not detector._corroborators
        assert 1 in coordinator.control.cluster.hosts
        assert coordinator.errors[-1].startswith("suspect: ")
        coordinator.dispatch(Conn(), {"op": "suspect", "host": 1, "by": 2})
        assert 1 not in coordinator.control.cluster.hosts  # at once


class Outbox(Pipe):
    """A client connection's pipe that never writes: frames wait in its
    outbox, and the test encodes them when it chooses."""

    FOLD = FOLD_DONES

    def written(self) -> list[dict]:
        return list(FrameReader().feed(self.encode(list(self.outbox))))


class TestMapSnapshots:
    """A frame carries the map object and is encoded only when its link
    writes, so no map a host has sent may change afterwards."""

    def test_a_queued_map_goes_out_as_queued_across_a_reservation(self):
        net = Net(3)
        net.run(0.5)
        coordinator = net.hosts[0]
        outbox = Outbox()
        coordinator.dispatch(outbox, {"op": "map"})
        queued = coordinator.control.cluster
        counters = (queued.next_host, queued.next_pid)
        join(net)   # the reservation moves the coordinator's counters
        now = coordinator.control.cluster
        assert (now.next_host, now.next_pid) == (counters[0] + 1, counters[1] + 2)
        (frame,) = outbox.written()
        assert (frame["map"].next_host, frame["map"].next_pid) == counters

    def test_the_kept_rebuild_keeps_the_map_it_was_planned_from(self):
        net = Net(3)
        net.run(1.0)
        net.kill(2)
        net.run(3.0)
        settled(net, 1)
        coordinator = net.hosts[0]
        planned = coordinator.control._rebuilt["map"]
        counters = (planned.next_host, planned.next_pid)
        join(net)
        # host 1 re-offers its dump, as if its rebuild had raced a reset
        coordinator.dispatch(Conn(), {"op": "recover_dump", "gen": 1,
                                      "host": 1, "epoch": 0, "records": []})
        (_src, dest, repushed) = net.sent_ops("rebuild")[-1]
        assert dest == 1 and repushed["gen"] == 1
        assert (repushed["map"].next_host, repushed["map"].next_pid) == counters


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
                        "forwards": {30: 2}}
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

    def test_a_notice_held_through_the_eviction_restarts_no_drain(self):
        """The drainer's repeated ``leave`` notice, sent before the
        eviction and held by the recovering coordinator, names the
        generation the eviction ended: replayed after the rebuild it is
        dropped, not relayed back to a respawned full member."""
        net = Net(4)
        net.run(1.0)
        drainer = net.hosts[3]
        net.shelve = lambda src, dest, frame: (
            (frame["op"] == "leave" and src == 3)
            or (frame["op"] == "recover_dump" and src == 2))
        assert drainer.ask({"op": "leave", "host": 3}).ops == ["leaving"]
        net.run(0.2)
        assert {frame["gen"] for _, _, frame in net.shelved
                if frame["op"] == "leave"} == {0}
        net.kill(1)
        net.run(1.6)
        assert all(h.control.recovering for h in net.live)
        assert not drainer.control.draining
        net.release()    # the notices land on the recovering coordinator
        net.run(0.5)
        settled(net, 1)
        assert not drainer.control.draining and drainer.drains == 1
        assert all(not h.control.cluster.leaving for h in net.live)
        # a relay of the new generation still drains it
        assert net.hosts[0].ask({"op": "leave", "host": 3}).ops == ["leaving"]
        net.pump()
        assert drainer.control.draining and drainer.drains == 2

    def test_a_relay_from_before_the_eviction_restarts_no_drain(self):
        net = Net(4)
        net.run(1.0)
        drainer = net.hosts[3]
        net.shelve = lambda src, dest, frame: (
            frame["op"] == "leave" and src == 0)
        assert net.hosts[0].ask({"op": "leave", "host": 3}).ops == ["leaving"]
        net.kill(1)
        net.run(3.0)
        settled(net, 1)
        net.release()
        assert not drainer.control.draining and not drainer.drains
        assert all(not h.control.cluster.leaving for h in net.live)

    @pytest.mark.parametrize("bad", [None, "x", "1", True],
                             ids=["none", "word", "digits", "bool"])
    def test_a_leave_with_a_bad_gen_is_refused(self, bad):
        net = Net(3)
        net.run(0.5)
        drainer = net.hosts[2]
        asked = drainer.ask({"op": "leave", "host": 2, "gen": bad})
        assert asked.ops == ["error"]
        assert not drainer.control.draining and not drainer.drains

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


# -- what NodeHost keeps: records ---------------------------------------------------


class TestHostRecords:
    def test_a_served_op_is_held_packed_once_its_done_is_out(self):
        """The table packs each own record as its DONE goes out, so only
        the op still open is live; what a drain waits for is a count."""
        from repro.core.requests import REMOVE

        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=4))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 4))
            conn = Conn()
            host.connections.add(conn)
            for req in range(1, 61):
                host.handle_frame(conn, {
                    "op": "submit", "req": req, "pid": req % 4,
                    "kind": REMOVE if req % 3 == 0 else INSERT, "item": req})
                if req % 10 == 0:
                    await asyncio.sleep(0.05)  # a few waves
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                done = [frame["req"] for frame in conn.replies
                        if frame["op"] == "done"]
                if len(done) == 60:
                    break
                await asyncio.sleep(0.05)
            uncompleted = host.records.uncompleted
            host.handle_frame(conn, {"op": "submit", "req": 61, "pid": 1,
                                     "kind": INSERT, "item": 61})
            live, errors = set(host.records.local.live), list(host.errors)
            held = len(host.records.local)
            host.connections.discard(conn)
            await host._async_stop()
            return done, uncompleted, live, held, errors

        done, uncompleted, live, held, errors = asyncio.run(scenario())
        assert sorted(done) == list(range(1, 61)) and uncompleted == 0
        assert live == {61} and held == 61 and not errors


# -- what NodeHost keeps: the frame table ------------------------------------------


class TestFrameTable:
    def test_every_op_has_at_most_one_handler(self):
        def handled(cls):
            return {name[4:] for name in dir(cls) if name.startswith("_on_")}

        host_ops, control_ops = handled(NodeHost), handled(ControlPlane)
        assert not host_ops & control_ops
        assert host_ops | control_ops <= set(FRAME_TYPES)

        class Twin:
            def _on_health(self, conn, message, now): ...

        with pytest.raises(ValueError, match="health"):
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

    def test_a_submit_the_host_cannot_run_is_refused_to_its_sender(self):
        """A ``kind`` that is neither INSERT nor REMOVE would run as a
        removal, and a ``req`` the record table refuses (a duplicate, or
        one of another host's residue) would raise after the pid's
        program-order index was spent.  The host answers each with an
        ``error`` frame before it spends one, and logs no error."""
        from repro.core.requests import REMOVE

        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2,
                                       id_slots=2))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2, 2))
            conn = Conn()
            host.connections.add(conn)  # an accepted client session
            for req, kind in ((2, 7), (4, "x"), (3, INSERT), (6, INSERT),
                              (6, REMOVE)):
                host.handle_frame(conn, {"op": "submit", "req": req, "pid": 0,
                                         "kind": kind, "item": "job"})
            counts = dict(host._op_counts)
            host.connections.discard(conn)
            await host._async_stop()
            return conn.replies, counts, host.errors

        replies, counts, errors = asyncio.run(scenario())
        refused = [frame for frame in replies if frame["op"] == "error"]
        assert [frame["message"].rpartition("(req ")[2] for frame in refused] == [
            "2)", "4)", "3)", "6)"]
        # only the one accepted submit may have been answered `done` yet
        assert {frame["req"] for frame in replies if frame["op"] == "done"} <= {6}
        assert counts == {0: 1} and errors == []

    @pytest.mark.parametrize("field, value", [
        ("req", 8.0), ("req", -2), ("req", True), ("req", "8"),
        ("kind", True), ("kind", 1.0), ("pid", "0"), ("pid", 0.0),
        ("pri", "x"), ("pri", 1.5), ("pri", False),
    ])
    def test_a_submit_with_a_field_of_the_wrong_type_is_refused(
            self, field, value):
        """A ``req`` that is not a non-negative int, or a ``kind``,
        ``pid`` or ``pri`` that is not an int (a bool is not one), is
        refused with an ``error`` frame before a program-order index is
        spent, not raised inside the dispatcher nor put in the history."""
        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2,
                                       id_slots=2))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2, 2))
            conn = Conn()
            host.connections.add(conn)
            host.handle_frame(conn, {"op": "submit", "req": 8, "pid": 0,
                                     "kind": INSERT, "item": "job", "pri": 0,
                                     field: value})
            counts = dict(host._op_counts)
            host.connections.discard(conn)
            await host._async_stop()
            return conn.replies, counts, host.errors

        replies, counts, errors = asyncio.run(scenario())
        assert [frame["op"] for frame in replies] == ["error"]
        assert (f"{field} {value!r} is not an int" if field != "req"
                else "not a non-negative int") in replies[0]["message"]
        assert counts == {} and errors == []

    def test_a_submit_at_a_leaving_pid_is_rejected(self):
        """A leaving node takes no requests, as on the simulators: one
        buffered after its DEPART_COMMIT dump would ride no wave.  The
        client resubmits a ``rejected`` op elsewhere."""

        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=3, n_processes=3))
            genesis = ClusterMap.genesis(
                {i: ("127.0.0.1", 1) for i in range(3)}, 3)
            host.wire_genesis(genesis)
            (pid,) = genesis.pids_of(0)
            host.runtime.actors[vid_of(pid, MIDDLE)].start_leave()
            conn = Conn()
            host.connections.add(conn)
            host.handle_frame(conn, {"op": "submit", "req": 3, "pid": pid,
                                     "kind": INSERT, "item": "job"})
            opened = len(host.records.local)
            host.connections.discard(conn)
            await host._async_stop()
            return conn.replies, opened

        replies, opened = asyncio.run(scenario())
        assert [(frame["op"], frame["req"]) for frame in replies] == [
            ("rejected", 3)]
        assert not opened


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
        # a join reservation swaps in a same-version draft; the client
        # follows the maps hosts push, it is not a host
        assert sites == {"control.py:adopt", "control.py:_on_join",
                         "client.py:_apply_map"}

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
