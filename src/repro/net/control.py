"""The control plane: which cluster map a host lives under, whether it
is recovering, and what it may not handle yet.

The paper changes membership at one point — JOIN/LEAVE requests ride a
wave to the anchor and every node switches view in one update phase.
:class:`ControlPlane` is the host layer's version of that point, built
on three rules:

1. **One adoption.**  Every cluster map, whatever carried it (the
   launcher's ``wire``, a joiner's ``join_ok``, a ``host_map`` push, a
   ``rebuild``) and every mutation the coordinator makes itself, goes
   through :meth:`ControlPlane.adopt`.  It compares ``version`` once and
   then does the follow-up in one fixed order (DESIGN.md, "Membership
   over TCP", says why the order is what it is).  The coordinator never
   edits its map in place: it applies a :class:`ClusterMap` method to a
   copy and adopts the copy like everyone else (a join reservation
   swaps its copy in), so a frame carries a map as it was sent.
2. **One state.**  ``gen`` is the recovery generation whose rebuild this
   host last applied (a host is born into its first map's generation).
   A host is *recovering* exactly while ``cluster.recovery_epoch`` is
   ahead of it, so adopting a map whose epoch rose *is* entering
   recovery — there is no eviction frame, no flag to set and none to
   forget — and applying the rebuild of that generation is leaving it.
3. **One hold queue.**  A frame's admission rule is its
   :class:`~repro.net.transport.FrameSpec`'s.  A frame that needs a
   serving shard is admissible iff the host is wired, not recovering
   and — for the generation-fenced data frames — stamped with ``gen``.
   A frame of an older generation is dropped; anything else that came
   early waits in :attr:`held` and is replayed, in arrival order and
   through the ordinary dispatch, whenever the predicate may have
   flipped.

Around these sit the coordinator's duties (join reserve/commit, leave,
forwards merge, retire), the failure detector and suspect → evict, and
the rebuild (dump collection → :func:`repro.ops.recovery.plan_rebuild`).

Nothing here opens a socket or touches the event loop.  The plane is
handed ``send(host, frame)``, a clock value on every call and the
:class:`DataPlane` it steers — which is what lets
``tests/unit/test_control.py`` run whole clusters of these objects,
crashes and reordered frames included, without either.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Protocol

from repro.net.membership import ClusterMap
from repro.net.records import RecordTable
from repro.net.transport import (
    FENCED,
    FENCED_DEDUP,
    FRAME_TYPES,
    MAX_FRAME_BYTES,
    OPEN,
)
from repro.ops.detector import FailureDetector
from repro.ops.recovery import merge_records, plan_rebuild

__all__ = ["ControlPlane", "DataPlane", "frame_handlers"]

#: Seconds between a recovering host's dump re-offers (and the acting
#: coordinator's map re-pushes to hosts whose dump is missing).
_REOFFER_SECONDS = 1.0

#: Ring successors a host mirrors its records to.  A client's DONE waits
#: for the first replica ack (``RecordTable``), so an acknowledged op
#: survives one host crash: the fault model is f = 1.
_REPLICAS = 2

#: Bytes a ``pid_owner`` entry packs in (int32 pid, int8 host): a join
#: past ``MAX_FRAME_BYTES`` of them is refused, no map could carry it.
_PID_ENTRY_BYTES = 7


def frame_handlers(*planes) -> dict[str, tuple[Callable, str]]:
    """The one frame table: ``{op: (handler, admission)}`` over every
    ``_on_<op>`` method of ``planes``, each called as ``handler(conn,
    message, now)`` once ``admission`` (the op's
    :class:`~repro.net.transport.FrameSpec`) lets the frame in."""
    table: dict[str, tuple[Callable, str]] = {}
    for plane in planes:
        for name in dir(plane):
            if not name.startswith("_on_"):
                continue
            op = name[4:]
            if op in table:
                raise ValueError(f"two handlers for frame {op!r}")
            table[op] = (getattr(plane, name), FRAME_TYPES[op].admission)
    return table


class DataPlane(Protocol):
    """What the control plane asks of the host that owns the sockets and
    the actors (:class:`repro.net.server.NodeHost`; a fake in tests)."""

    update_epoch: int  #: the last update epoch the local actors observed

    def map_changed(self, cluster: ClusterMap) -> None:
        """Follow an adopted map: links to exactly its hosts, its forwards."""

    def drop(self) -> None:
        """Entering recovery: tear down every actor and stop a drain."""

    def respawn(self, cluster: ClusterMap, anchor, elements, reruns) -> int:
        """Leaving recovery: spawn this host's shard of ``cluster``, restore
        the anchor, preload the elements, re-run ``reruns``; actor count."""

    def start_drain(self) -> None:
        """Send every local actor off through LEAVE; retire once empty."""

    def start_joins(self, pids: list[int]) -> None:
        """Route the JOINs of a committed joiner's virtual nodes."""

    def push_clients(self, frame: dict) -> None: ...

    def dispatch(self, conn, message: dict) -> None:
        """The ordinary frame dispatch (held frames are replayed here)."""

    def note_error(self, where: str, detail: str) -> None: ...

    def stop(self) -> None: ...


class ControlPlane:
    """One host's membership view, recovery state and hold queue.

    ``config`` is the host's :class:`~repro.net.server.HostConfig`
    (duck-typed); ``send(host, frame)`` ships one frame to a live peer
    and answers whether a link existed; ``conn`` arguments only need a
    ``send(frame)`` for the reply.
    """

    def __init__(self, config, records: RecordTable,
                 send: Callable[[int, dict], bool], data: DataPlane) -> None:
        self.config = config
        self.index: int = config.host_index
        self.records = records
        self.data = data
        self._send = send
        self.cluster: ClusterMap | None = None
        #: the recovery generation whose rebuild was last applied
        self.gen = 0
        records.holder_of = lambda origin: self.cluster.complete_target(origin)
        records.gen = lambda: self.gen
        self.detector = FailureDetector()
        self.draining = False
        #: (conn, frame) pairs that arrived before they could be handled
        self.held: deque[tuple[object, dict]] = deque()
        # -- coordinator duties ----------------------------------------------
        # join reservations handed out but not yet committed
        self._reservations: dict[int, list[int]] = {}
        #: error logs of retired hosts this (coordinator) host took over
        self.adopted_errors: list[str] = []
        # -- recovery ---------------------------------------------------------
        #: crash evictions observed: ``{"host", "adopter", "gen"}``
        self.evictions: list[dict] = []
        # acting coordinator: host -> (records, update epoch) offered
        # for the generation being rebuilt
        self._dumps: dict[int, tuple[list, int]] = {}
        self._offered_at = 0.0
        # the last rebuild planned here, re-pushed to a host whose copy
        # raced a link reset
        self._rebuilt: dict | None = None
        #: ops log ring, served by ``/health``
        self.log: deque[str] = deque(maxlen=200)

    # -- the one state ---------------------------------------------------------
    @property
    def wired(self) -> bool:
        return self.cluster is not None

    @property
    def recovering(self) -> bool:
        cluster = self.cluster
        return cluster is not None and cluster.recovery_epoch > self.gen

    @property
    def is_coordinator(self) -> bool:
        return self.cluster is not None and self.cluster.coordinator == self.index

    def _acting_coordinator(self) -> int:
        """The coordinator with suspects excluded — eviction must proceed
        when the coordinator itself is the crashed host (re-election:
        lowest live index)."""
        suspects = set(self.detector.suspects())
        live = [h for h in self.cluster.hosts if h not in suspects]
        return min(live) if live else self.index

    def note(self, text: str) -> None:
        """Ops-plane log line: ring buffer (served by /health) + stdout."""
        entry = f"{time.strftime('%H:%M:%S')} host {self.index}: {text}"
        self.log.append(entry)
        print(f"[skueue-ops] {entry}", flush=True)

    # -- the one adoption ------------------------------------------------------
    def adopt(self, incoming: ClusterMap, now: float,
              publish: bool = False) -> bool:
        """Switch to ``incoming`` if it is newer; the only place a host's
        cluster map changes version.  ``publish`` (the coordinator's own
        mutations) also broadcasts it to the peers it names."""
        previous = self.cluster
        if previous is not None and incoming.version <= previous.version:
            return False
        self.cluster = incoming
        if previous is None or self.index not in previous.hosts:
            # born into this map's generation (a joiner is named by the
            # map its commit publishes, not by the one it booted from)
            self.gen = incoming.recovery_epoch
        elif self.index not in incoming.hosts:
            # zombie fence: the cluster declared *us* dead — a false
            # positive notwithstanding, carrying on would split-brain the
            # anchor, so stop and let the operator re-join us fresh
            self.note("the cluster map no longer names us; stopping")
            self.data.stop()
            return True
        self.data.map_changed(incoming)
        if self.index in incoming.hosts:
            # a joiner watches nobody until a map names it: nobody beacons
            # to it before, so it would suspect — and, alone in its view,
            # evict — every host of a map only it holds
            for host in incoming.hosts:
                if host != self.index:
                    self.detector.register(host, now)
        for host in self.detector.watched():
            if host not in incoming.hosts:
                self.detector.forget(host)
        frame = {"op": "host_map", "map": incoming}
        if publish:
            self._broadcast(frame)
        if not self.recovering:
            self._serve(frame, now)
        elif incoming.recovery_epoch > previous.recovery_epoch:
            self._enter_recovery(previous, now)
        return True

    def _broadcast(self, frame: dict) -> None:
        for host in self.cluster.hosts:
            if host != self.index:
                self._send(host, frame)

    def _publish(self, mutate: Callable[[ClusterMap], None],
                 now: float) -> None:
        """Coordinator side of every membership change: mutate a copy,
        adopt it, broadcast it."""
        draft = self.cluster.copy()
        mutate(draft)
        self.adopt(draft, now, publish=True)

    def _serve(self, frame: dict, now: float) -> None:
        """The follow-up only a serving host owes a map: mirror to the
        successors it names, retry what waited for it, tell the clients
        (who therefore hear of an eviction only once it is rebuilt)."""
        self.records.set_targets(
            self.cluster.successors_of(self.index, _REPLICAS))
        self.records.replay_parked()
        self.data.push_clients(frame)
        held, self.held = self.held, deque()
        for conn, message in held:
            self.data.dispatch(conn, message)

    # -- the one hold queue ----------------------------------------------------
    def admit(self, conn, message: dict, admission: str) -> bool:
        """Whether ``message`` may be handled now under ``admission`` (its
        op's :class:`~repro.net.transport.FrameSpec`).  If not it was
        dropped (a fenced ``gen`` names a generation already rebuilt
        over) or is held for replay."""
        if admission == OPEN:
            return True
        # the generation fence: data-plane frames from before a crash
        # eviction must not leak into the rebuilt actors (their waves
        # restarted from the merged record set) or the purged replicas
        fenced = admission == FENCED_DEDUP or admission == FENCED
        gen = message.get("gen", 0) if fenced else None
        cluster = self.cluster
        if cluster is not None:
            epoch = cluster.recovery_epoch
            if epoch == self.gen and (gen is None or gen == epoch):
                return True
            if gen is not None and gen < epoch:
                return False
        self.held.append((conn, message))
        return False

    # -- periodic duties -------------------------------------------------------
    def beat(self, now: float) -> None:
        """One heartbeat period: beacon, observe silence, report or evict
        — through a recovery too, or a second host dying inside the
        window would be waited for forever."""
        if self.cluster is None:
            return
        self._broadcast({"op": "heartbeat", "host": self.index})
        for host in self.detector.observe(now):
            self.note(f"suspecting host {host}: silent for "
                      f"{self.detector.age_of(host, now):.2f}s")
        for host in self.detector.suspects():
            self._report(host, now)

    def dialed(self, host: int, refused: bool, now: float) -> None:
        """A peer link's dial to ``host`` connected, or was refused.  A
        refusal means nothing listens on its port: its process is gone,
        so the suspicion starts now and goes to the acting coordinator
        now, not at the next beat."""
        if not refused:
            self.detector.dialed(host)
        elif self.cluster is not None and self.detector.refused(host, now):
            self.note(f"suspecting host {host}: connection refused")
            self._report(host, now)

    def _report(self, host: int, now: float) -> None:
        """Our suspicion of ``host``: tell the acting coordinator, or,
        acting ourselves, evict once :meth:`FailureDetector.should_evict`
        says the evidence suffices."""
        if host not in self.cluster.hosts:
            return
        acting = self._acting_coordinator()
        if acting != self.index:
            self._send(acting, {"op": "suspect", "host": host,
                                "by": self.index})
        elif self.detector.should_evict(host, now, len(self.cluster.hosts)):
            adopter = self.cluster.successors_of(host, 1)[0]
            self._publish(lambda m: m.evict_host(host, adopter), now)

    def tick(self, now: float, departed: dict[int, int]) -> None:
        """Housekeeping.  Serving: get ``departed`` (the forwards local
        actors left behind) and a drain in progress into the map.
        Recovering: re-offer the dump."""
        cluster = self.cluster
        if cluster is None:
            return
        if self.recovering:
            if now - self._offered_at >= _REOFFER_SECONDS:
                # the acting coordinator may have changed (it crashed too)
                # or our dump may have raced its link teardown
                self._offer_dump(now)
                if self._dumps:
                    # we are collecting: a host whose dump is missing may
                    # have missed the map that asks for it — say it again
                    notice = {"op": "host_map", "map": cluster}
                    for host in cluster.hosts:
                        if host not in self._dumps:
                            self._send(host, notice)
            return
        # dedup against the *map*, not a sent-log: both pushes are
        # fire-and-forget, so repeat them until the broadcast map shows
        # the entry
        if self.draining and self.index not in cluster.leaving:
            self._send(cluster.coordinator,
                       {"op": "leave", "host": self.index, "gen": self.gen})
        fresh = {vid: target for vid, target in departed.items()
                 if cluster.forwards.get(vid) != target}
        if fresh:
            frame = {"op": "forwards", "forwards": fresh}
            if self.is_coordinator:
                self._on_forwards(None, frame, now)
            else:
                self._send(cluster.coordinator, frame)

    # -- cluster map propagation -----------------------------------------------
    def _on_host_map(self, conn, message: dict, now: float) -> None:
        if self.cluster is not None:  # the first map is the `wire` frame's
            self.adopt(message["map"], now)

    def _on_map(self, conn, message: dict, now: float) -> None:
        if self.cluster is None:
            conn.send({"op": "error", "message": "host not wired yet"})
        else:
            conn.send({"op": "host_map", "map": self.cluster})

    def _on_forwards(self, conn, message: dict, now: float) -> None:
        # mid-recovery they describe departures the eviction cancelled
        if not self.is_coordinator or self.recovering:
            return
        fresh = {
            vid: target
            for vid, target in message.get("forwards", {}).items()
            if self.cluster.forwards.get(vid) != target
        }
        if fresh:
            self._publish(lambda m: m.merge_forwards(fresh), now)

    # -- membership: join ------------------------------------------------------
    def _on_join(self, conn, message: dict, now: float) -> None:
        cluster = self.cluster
        if not self.is_coordinator:
            conn.send({
                "op": "error",
                "message": f"not the coordinator (host "
                           f"{cluster.coordinator} is)",
                "coordinator": cluster.coordinator,
                "map": cluster,
            })
            return
        n_pids = message.get("pids", 1)
        most = MAX_FRAME_BYTES // _PID_ENTRY_BYTES - len(cluster.pid_owner)
        if type(n_pids) is not int or not 1 <= n_pids <= most:
            conn.send({"op": "error", "message":
                       f"join pids must be an int in [1, {most}], "
                       f"not {n_pids!r}"})
            return
        draft = cluster.copy()
        try:
            host_index, pids = draft.reserve_join(n_pids)
        except ValueError as exc:
            conn.send({"op": "error", "message": str(exc)})
            return
        # counters only, no version to adopt: the draft replaces a map
        # that queued frames may hold, and they send it unchanged
        self.cluster = draft
        self._reservations[host_index] = pids
        conn.send({
            "op": "join_ok",
            "host": host_index,
            "pids": pids,
            "config": self.config.shared_json(),
            "map": draft,
        })

    def _on_join_commit(self, conn, message: dict, now: float) -> None:
        host_index, address = message.get("host"), message.get("address")
        if (type(host_index) is not int or type(address) not in (list, tuple)
                or tuple(map(type, address)) != (str, int)
                or not 0 < address[1] < 65536):
            # a map naming it would not decode on any receiver
            conn.send({"op": "error", "message": f"join_commit needs an int "
                       f"host and a [str, port], not {host_index!r}, {address!r}"})
            return
        pids = self._reservations.pop(host_index, None)
        if pids is None:
            conn.send({"op": "error",
                       "message": f"no join reservation for host {host_index}"})
            return
        self._publish(lambda m: m.commit_join(host_index, address, pids), now)
        self.data.start_joins(pids)
        conn.send({"op": "join_done", "host": host_index})

    # -- membership: leave -----------------------------------------------------
    def _on_leave(self, conn, message: dict, now: float) -> None:
        # an operator's leave carries no `gen`; a host's (the drainer's
        # repeated notice, the coordinator's relay) carries the one it
        # was sent in
        target, gen = message.get("host"), message.get("gen", self.gen)
        cluster = self.cluster
        if type(target) is not int or type(gen) is not int:
            conn.send({"op": "error", "message": f"leave needs an int host "
                       f"and gen, not {target!r}, {gen!r}"})
        elif gen != self.gen:
            # sent before an eviction that cancelled the drain it asks
            # for (held here through the recovery, or raced it): replayed,
            # it would restart that drain on a respawned full member
            return
        elif target == cluster.coordinator:
            conn.send({"op": "error",
                       "message": "the coordinator host cannot be drained"})
        elif target not in cluster.hosts:
            conn.send({"op": "error", "message": f"host {target} is not live"})
        elif target == self.index:
            if not self.draining:
                # `tick` tells the coordinator, so clients stop picking
                # our pids, and keeps telling it until the map says so
                self.draining = True
                self.data.start_drain()
            conn.send({"op": "leaving", "host": target})
        elif self.is_coordinator:
            if target not in cluster.leaving:
                self._publish(lambda m: m.start_drain(target), now)
                # relay in case the operator talked to us only
                self._send(target, {"op": "leave", "host": target,
                                    "gen": self.gen})
            conn.send({"op": "leaving", "host": target})
        else:
            conn.send({
                "op": "error",
                "message": f"send leave to host {target} or the coordinator",
            })

    def _on_retire(self, conn, message: dict, now: float) -> None:
        host_index = message.get("host")
        if type(host_index) is not int:
            conn.send({"op": "error", "message":
                       f"retire needs an int host, not {host_index!r}"})
            return
        if not self.is_coordinator:
            conn.send({"op": "error", "message": "not the coordinator"})
            return
        if host_index in self.cluster.hosts:
            if host_index not in self.cluster.leaving:
                # sent before an eviction cancelled the drain: the host
                # has been respawned as a full member since
                conn.send({"op": "error",
                           "message": f"host {host_index} is not draining"})
                return
            self.records.archive(message.get("records", ()))
            self.adopted_errors.extend(message.get("errors", ()))
            forwards = message.get("forwards", {})
            self._publish(
                lambda m: m.retire_host(host_index, self.index, forwards), now)
        # else a retry whose first answer was lost: already done
        conn.send({"op": "retired", "host": host_index})

    # -- failure detection -----------------------------------------------------
    def _on_heartbeat(self, conn, message: dict, now: float) -> None:
        host = message.get("host")
        if type(host) is int:  # a beacon that names no host is dropped
            self.detector.heard_from(host, now)

    def _on_suspect(self, conn, message: dict, now: float) -> None:
        host, reporter = message.get("host"), message.get("by")
        if type(host) is not int or type(reporter) is not int:
            self.data.note_error(
                "suspect", f"needs int host and by, not {host!r}, {reporter!r}")
            return
        # a witness is another live member: not the suspect, not us, and
        # not a host the map no longer names (a retiree's last words)
        if (self.cluster is None or reporter in (host, self.index)
                or reporter not in self.cluster.hosts):
            return
        self.detector.heard_from(reporter, now)
        self.detector.corroborate(host, reporter)
        if self._acting_coordinator() == self.index:
            self._report(host, now)  # a witness may be all it waited for

    # -- recovery --------------------------------------------------------------
    def _enter_recovery(self, previous: ClusterMap, now: float) -> None:
        """The adopted map's epoch rose: what this host was doing belongs
        to a dead generation.  Tear it down and offer our facts."""
        gen = self.cluster.recovery_epoch
        for host, adopter in self.cluster.departed.items():
            if host in previous.hosts:
                self.evictions.append(
                    {"host": host, "adopter": adopter, "gen": gen})
                self.note(f"host {host} evicted (adopter {adopter}); "
                          f"entering recovery generation {gen}")
        # an eviction cancels a drain in progress (the map's `leaving`
        # went with it): the respawned shard serves as a full member
        # until the operator re-issues `leave`
        self.draining = False
        self._dumps = {}
        self.data.drop()
        self.records.reset_epoch()   # wave proxies, parked facts
        self._offer_dump(now)

    def _offer_dump(self, now: float) -> None:
        self._offered_at = now
        frame = {
            "op": "recover_dump",
            "gen": self.cluster.recovery_epoch,
            "host": self.index,
            "epoch": self.data.update_epoch,
            "records": self.records.dump(replicas=True),
        }
        acting = self._acting_coordinator()
        if acting == self.index:
            self._on_recover_dump(None, frame, now)
        else:
            self._send(acting, frame)

    def _on_recover_dump(self, conn, message: dict, now: float) -> None:
        gen, host = message.get("gen"), message.get("host")
        epoch = message.get("epoch")
        if not (type(gen) is type(host) is type(epoch) is int):
            self.data.note_error(
                "recover_dump", f"needs int gen, host and epoch, "
                                f"not {gen!r}, {host!r}, {epoch!r}")
            return
        if not self.recovering:
            # we already rebuilt this generation: the sender's rebuild
            # frame must have raced a link reset — push it again
            if self._rebuilt is not None and gen == self.gen:
                self._send(host, self._rebuilt)
            return
        if gen != self.cluster.recovery_epoch:
            return
        self._dumps[host] = (message["records"], epoch)
        if set(self.cluster.hosts).issubset(self._dumps):
            self._plan_rebuild(now)

    def _plan_rebuild(self, now: float) -> None:
        """Acting-coordinator side: merge every dump, plan, broadcast."""
        dumps, self._dumps = self._dumps, {}
        merged = merge_records(records for records, _epoch in dumps.values())
        plan = plan_rebuild(
            merged,
            self.config.structure,
            n_priorities=self.config.n_priorities,
            epoch=max(epoch for _records, epoch in dumps.values()) + 1,
            members=3 * len(self.cluster.pid_owner),
        )
        for err in plan.errors:
            self.data.note_error("rebuild", err)
        if plan.repairs:
            self.note(f"rebuild repaired lost facts for reqs {plan.repairs}")
        frame = self._rebuilt = {
            "op": "rebuild",
            "gen": self.cluster.recovery_epoch,
            "map": self.cluster,
            "records": list(merged.values()),
            "anchor": plan.anchor,
            "elements": plan.elements,
            "reruns": list(plan.reruns),
        }
        self.note(
            f"rebuild planned: {len(merged)} records, "
            f"{len(plan.elements)} live elements, {len(plan.reruns)} reruns, "
            f"{len(plan.repairs)} repairs, {len(plan.errors)} errors"
        )
        self._broadcast(frame)
        self._on_rebuild(None, frame, now)

    def _on_rebuild(self, conn, message: dict, now: float) -> None:
        """Every-host side: adopt the merged truth, respawn the shard."""
        if self.cluster is None:
            return
        gen = message.get("gen")
        if type(gen) is not int:
            self.data.note_error("rebuild", f"needs an int gen, not {gen!r}")
            return
        rebuilt = message["map"]
        # a host that never saw the eviction's map enters recovery here
        self.adopt(rebuilt, now)
        if (gen <= self.gen or gen != self.cluster.recovery_epoch
                or self.index not in self.cluster.hosts):
            # a re-push of a rebuild already applied, one a later
            # eviction superseded, or one that does not concern us
            return
        # from here on we speak (and admit) the new generation: what the
        # fold and the respawn send must not be fenced off by the peers
        self.gen = gen
        cluster = self.cluster
        self.records.fold(
            message["records"],
            {origin for origin in cluster.departed
             if cluster.complete_target(origin) == self.index},
            cluster.successors_of(self.index, _REPLICAS),
        )
        # the map every host rebuilds from, not a newer one we may hold:
        # a joiner committed since enters through the JOIN machinery
        actors = self.data.respawn(
            rebuilt, message["anchor"], message["elements"],
            message.get("reruns", ()),
        )
        self._serve({"op": "host_map", "map": cluster}, now)
        self.note(f"recovery generation {gen} complete; {actors} actors live")
