"""`NodeHost`: one OS process hosting a shard of virtual nodes over TCP.

A deployment is a set of NodeHost processes plus any number of clients.
Genesis processes (pids) are sharded round-robin: host ``h`` emulates
every genesis pid with ``pid % n_hosts == h`` — all three virtual nodes
of a pid together, so the protocol's same-process sibling reads stay
local (see DESIGN.md, "The net runtime").  Every genesis host builds the
*same* :class:`~repro.overlay.ldb.LdbTopology` snapshot from the shared
salt, so pred/succ wiring, routing parameters and the anchor agree
globally without any coordination traffic.

Beyond genesis the membership is **live**: hosts join a running
deployment (``skueue-node join``) bringing fresh pids that enter the
overlay through the paper's JOIN machinery, and hosts drain out again
(the ``leave`` frame) with their pids departing through the LEAVE/update
machinery — all while clients keep submitting.  Ownership is tracked by
a versioned :class:`~repro.net.membership.ClusterMap` whose mutations
are serialised by the *coordinator* (the lowest live host index).
Which map this host lives under, whether it is recovering from a crash
eviction and which frames must wait are :mod:`repro.net.control`'s
business, a module without sockets: ``NodeHost`` hands it every
membership, detector and recovery frame and is the data plane it steers
(:class:`repro.net.control.DataPlane`).

The wire vocabulary (one JSON frame each) is catalogued in
``docs/PROTOCOL.md`` and registered in
:data:`repro.net.transport.FRAME_TYPES`; a test diffs the two against
this module's emissions, so consult those rather than a summary here.

Concurrent clients: each ``hello`` is answered with a fresh per-host
``nonce``; clients pack it into every req_id
(:func:`repro.core.requests.pack_req_id`), so any number of clients may
submit to the same host with zero id collisions.

TIMEOUT is event-loop-driven (no rounds): see
:class:`repro.net.runtime.NetRuntime`.  How a record's facts merge,
travel and are held is :mod:`repro.net.records`' business.  What is left
here is what needs the event loop or an actor: accepting connections,
frame dispatch, client intake (submit, DONE, nonces), spawning and
respawning the shard, the periodic loops and the ops hooks.  The sockets
themselves — the accepted :class:`~repro.net.link.Connection`, the
outbound :class:`~repro.net.link.PeerLink`, their write loop, fold and
teardown — are :mod:`repro.net.link`'s, which knows nothing of hosts.
"""

from __future__ import annotations

import asyncio
import errno
import time
import traceback
from dataclasses import asdict, dataclass, field

from repro.core.actions import CATALOG
from repro.core.cluster import join_pid, promote_joiners, spawn_nodes
from repro.core.protocol import ClusterContext
from repro.core.structures import get_structure
from repro.net.control import ControlPlane, frame_handlers
from repro.net.link import Connection, PeerLink, ResendFilter
from repro.net.membership import ClusterMap
from repro.net.records import NetOpRecord, RecordTable, decode_complete
from repro.net.runtime import TIMEOUT_LAG, NetRuntime
from repro.ops.health import build_health, build_status, start_ops_server
from repro.net.transport import (
    CLIENT,
    FENCED,
    FENCED_DEDUP,
    request_async,
)
from repro.overlay.ldb import MIDDLE, LdbTopology, pid_of, vid_of
from repro.overlay.routing import route_steps_for
from repro.sim.metrics import Metrics
from repro.telemetry import MetricsRegistry, Tracer, render_run_metrics

__all__ = ["PER_HOST_FIELDS", "HostConfig", "NodeHost"]

#: Seconds an actor message may wait for a cluster-map update that names
#: its destination pid before it is declared undeliverable.
_UNROUTED_GRACE = 10.0

#: Seconds a drained host stays up after handing its archive over, so
#: peers can still push stragglers through its forwarding table.
_RETIRE_LINGER = 0.5

#: :class:`HostConfig` fields that describe one host, not the deployment.
PER_HOST_FIELDS = ("host_index", "bind_host", "port", "owned", "ops_port")


@dataclass(slots=True)
class HostConfig:
    """Everything one host needs to boot (identical topology view)."""

    host_index: int
    n_hosts: int
    n_processes: int
    seed: int = 0
    bind_host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port, report via .port
    round_seconds: float = 0.01
    # re-arm pace in seconds, paid once per wave: a node that re-arms
    # (after its SERVE, a fresh request, a membership wake) runs TIMEOUT
    # this much later; a TIMEOUT for an arriving child batch is not paced
    timeout_lag: float = TIMEOUT_LAG
    sweep_seconds: float = 0.25
    epoch: float = 0.0  # shared wall-clock origin for `now` (0: host start)
    # any registered structure name: "queue" (Skueue), "stack" (Skack),
    # "heap" (Skeap), ... — see repro.core.structures
    structure: str = "queue"
    salt: str = field(default="")
    # fixed req_id origin-residue modulus; 0 means n_hosts
    id_slots: int = 0
    # Skeap priority class count (ignored by queue/stack deployments)
    n_priorities: int = 4
    # explicit pid set for hosts joining a live deployment (None: genesis
    # round-robin shard over range(n_processes))
    owned: list[int] | None = None
    # -- crash-stop fault tolerance + ops plane (defaults keep old JSON
    #    configs loading unchanged) ------------------------------------------
    # HTTP ops listener port (0: ephemeral, announced via SKUEUE-OPS)
    ops_port: int = 0
    # liveness beacon period on every peer link
    heartbeat_seconds: float = 0.25
    # consecutive silent heartbeat windows before a peer is suspected
    miss_threshold: int = 4
    # uncorroborated suspicion age that still justifies eviction
    confirm_seconds: float = 1.5
    # completion replicas mirrored to this many ring successors
    replication: int = 2
    # -- telemetry plane (PR 9) ----------------------------------------------
    # per-op trace sampling rate in [0, 1]; 0 keeps span collection off
    # (wire-tagged requests from sampling clients still open spans)
    trace_sample: float = 0.0
    # flight-recorder slow-op threshold in milliseconds (0: keep none)
    trace_slow_ms: float = 0.0

    def __post_init__(self) -> None:
        get_structure(self.structure)  # unknown names raise, listing valid ones
        if not self.salt:
            self.salt = f"skueue-{self.seed}"
        if not self.id_slots:
            self.id_slots = self.n_hosts

    @property
    def owned_pids(self) -> list[int]:
        if self.owned is not None:
            return list(self.owned)
        return [
            pid
            for pid in range(self.n_processes)
            if pid % self.n_hosts == self.host_index
        ]

    def to_json(self) -> dict:
        return asdict(self)

    def shared_json(self) -> dict:
        """The deployment-wide settings a joining host copies from the
        coordinator (the ``join_ok`` reply's ``config``): every field
        except :data:`PER_HOST_FIELDS`, which the joiner sets itself."""
        data = asdict(self)
        for name in PER_HOST_FIELDS:
            del data[name]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "HostConfig":
        return cls(**data)


class NodeHost:
    """Asyncio server process running one shard of the distributed queue,
    and the :class:`repro.net.control.DataPlane` its control plane steers."""

    def __init__(self, config: HostConfig) -> None:
        self.config = config
        self.spec = get_structure(config.structure)
        self.runtime = NetRuntime(
            self._send_remote,
            Metrics(),
            round_seconds=config.round_seconds,
            timeout_lag=config.timeout_lag,
            sweep_seconds=config.sweep_seconds,
            epoch=config.epoch,
        )
        self.runtime.on_actor_error = self._actor_error
        # every record this host holds, and how their facts travel
        self.records = RecordTable(
            config.host_index, config.id_slots, self._send_fenced
        )
        self.records.on_done = self._push_done
        # the cluster map, the recovery generation, the hold queue
        self.control = ControlPlane(config, self.records, self._send_peer, self)
        self.topology: LdbTopology | None = None
        self.ctx: ClusterContext | None = None
        self.peers: dict[int, PeerLink] = {}
        self.connections: set[Connection] = set()
        # connections that sent a client-shaped frame (`hello`/`submit`):
        # only these receive unsolicited pushes (host_map, update_over) —
        # peers and the launcher never read them
        self.clients: set[Connection] = set()
        self.server: asyncio.base_events.Server | None = None
        self.port: int | None = None
        self.errors: list[str] = []
        self._op_counts: dict[int, int] = {}
        self._submitters: dict[int, Connection] = {}
        # per-connection req_id nonces handed out in `welcome` (from 1)
        self._next_nonce = 1
        self._stopped: asyncio.Event | None = None
        # once stopping, the empty-wave pipeline of still-live peers keeps
        # delivering: drop silently instead of flagging protocol errors
        self._stopping = False
        # drops the duplicate a peer link's reconnect resend can deliver
        self.resends = ResendFilter()
        # pids of this host still integrating into the overlay
        self.joining_pids: set[int] = set()
        self._drain_task: asyncio.Task | None = None
        self._housekeeping_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        # actor messages whose destination pid the cluster map does not
        # (yet) name: a join broadcast may still be in flight
        self._unrouted: list[tuple[float, int, int, tuple]] = []
        #: the last update epoch a local actor observed
        self.update_epoch = 0
        self._pushed_epoch = 0
        # -- ops plane --------------------------------------------------------
        self.ops_server: asyncio.base_events.Server | None = None
        self.ops_port: int | None = None
        # -- telemetry plane (see DESIGN.md, "Telemetry") ---------------------
        self.telemetry = MetricsRegistry()
        # always constructed: a rate-0 tracer still opens spans for
        # wire-tagged requests from clients that sample (`tr` frames)
        self.tracer = Tracer(
            config.trace_sample,
            host=config.host_index,
            slow_ms=config.trace_slow_ms,
        )
        self._wire_telemetry()
        # op -> (handler, admission): every `_on_<op>` of both planes
        self._frame_table = frame_handlers(self, self.control)

    # -- telemetry -----------------------------------------------------------
    def _wire_telemetry(self) -> None:
        """Register this host's registry series.

        Hot-path instruments are cached as attributes (one float add per
        event); depth-style gauges use ``set_fn`` so the live objects are
        sampled at render time and the hot path pays nothing.
        """
        reg = self.telemetry
        self._frames_in = reg.counter(
            "skueue_frames_total", "frames handled by direction",
            direction="in")
        self._frames_out = reg.counter(
            "skueue_frames_total", "frames handled by direction",
            direction="out")
        self._bytes_out = reg.counter(
            "skueue_bytes_total", "socket bytes written", direction="out")
        self._write_batch = reg.histogram(
            "skueue_write_batch_frames",
            "frames coalesced into one socket write",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        reg.gauge("skueue_connections", "accepted TCP connections").set_fn(
            lambda: len(self.connections))
        reg.gauge("skueue_peer_links", "outbound peer links").set_fn(
            lambda: len(self.peers))
        reg.gauge(
            "skueue_peer_outbox_frames",
            "frames queued (or in flight) on outbound peer links",
        ).set_fn(lambda: sum(len(link.outbox) for link in self.peers.values()))
        reg.gauge("skueue_actors", "live virtual-node actors").set_fn(
            lambda: len(self.runtime.actors))
        reg.gauge("skueue_records_local",
                  "records this host originated").set_fn(
            lambda: len(self.records.local))
        reg.gauge("skueue_records_replica",
                  "records mirrored here by ring predecessors").set_fn(
            lambda: len(self.records.replicas))
        reg.gauge("skueue_recovery_generation",
                  "cluster recovery generation (fences the data plane)"
                  ).set_fn(lambda: self.control.gen)
        reg.gauge("skueue_evictions",
                  "crash evictions this host observed").set_fn(
            lambda: len(self.control.evictions))
        # wave health: these accumulate on the engine's run metrics (the
        # wave engine lives in repro.core), sampled here so they exist as
        # stable registry series from startup — a deployment riding
        # force-fires shows non-zero ffire in `skueue-ops top` instead
        # of only stalling quietly, and one whose waves run out of step
        # across hosts shows extras without waits
        for event, text in (
            ("wave_nudge_probes",
             "A_NUDGE wait-cycle probes launched by stuck waves"),
            ("wave_force_fires",
             "waves fired without stragglers after a confirmed wait cycle"),
            ("wave_remote_waits",
             "idle waits for a successor-child hosted by another process"),
            ("wave_remote_wait_expired",
             "such waits that ran out: the wave fired without the child"),
            ("wave_extras",
             "batches consumed by a wave that did not wait for them"),
        ):
            reg.counter(f"skueue_{event}_total", text).set_fn(
                lambda event=event: self.runtime.metrics.counters.get(event, 0))

    def count_write(self, frames: int, nbytes: int) -> None:
        """One buffered socket write went out (client or peer side)."""
        self._frames_out.inc(frames)
        self._bytes_out.inc(nbytes)
        self._write_batch.observe(frames)

    def metrics_text(self) -> str:
        """The Prometheus exposition body served at ``/metrics``: the
        registry's series plus the run metrics adapter (generated /
        completed / latency / wave stats)."""
        return (self.telemetry.render()
                + render_run_metrics(self.runtime.metrics))

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> int:
        """Bind the listening socket; returns the actual port.

        A fixed (non-zero) configured port is retried briefly on
        ``EADDRINUSE`` and then falls back to an ephemeral port — the
        READY line and the cluster map always report the truth, so
        parallel deployments (CI jobs) cannot flake on port collisions.
        """
        self._stopped = asyncio.Event()
        port = self.config.port
        for attempt in range(4):
            try:
                self.server = await asyncio.start_server(
                    self._accept, self.config.bind_host, port
                )
                break
            except OSError as exc:
                if port == 0 or exc.errno != errno.EADDRINUSE:
                    raise
                await asyncio.sleep(0.05 * (attempt + 1))
        else:
            self.server = await asyncio.start_server(
                self._accept, self.config.bind_host, 0
            )
        self.port = self.server.sockets[0].getsockname()[1]
        try:
            self.ops_server, self.ops_port = await start_ops_server(
                self, self.config.bind_host, self.config.ops_port
            )
        except OSError as exc:
            # the data plane works without the ops listener; note and go on
            self.note_error("ops", f"ops listener failed to bind: {exc}")
        return self.port

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def stop(self) -> None:
        self._stopping = True
        asyncio.get_running_loop().create_task(self._async_stop())

    async def _async_stop(self) -> None:
        await asyncio.sleep(0.05)  # let in-flight replies (`bye`) flush
        for task in (self._drain_task, self._housekeeping_task,
                     self._heartbeat_task):
            if task is not None:
                task.cancel()
        self.runtime.close()
        if self.server is not None:
            self.server.close()
        if self.ops_server is not None:
            self.ops_server.close()
        pipes = [*self.connections, *self.peers.values()]
        for pipe in pipes:
            pipe.close()
        await asyncio.gather(*(task for pipe in pipes for task in pipe.tasks),
                             return_exceptions=True)
        if self.server is not None:
            await self.server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    async def _accept(self, reader, writer) -> None:
        conn = Connection(self.handle_frame, self.forget_connection,
                          on_write=self.count_write, on_error=self.note_error)
        self.connections.add(conn)
        conn.start(reader, writer)

    def forget_connection(self, conn: Connection) -> None:
        """The connection was lost: nothing is pushed to it any more,
        not even the DONE of a request it still had outstanding."""
        self.connections.discard(conn)
        self.clients.discard(conn)
        self._submitters = {req: submitter for req, submitter
                            in self._submitters.items() if submitter is not conn}

    # -- bootstrap -------------------------------------------------------------
    def wire_genesis(self, cluster_map: ClusterMap) -> None:
        """The launcher's ``wire`` frame: spawn this host's shard of the
        genesis snapshot (once), then adopt the map it carries."""
        if not self.control.wired:
            config = self.config
            self.topology = LdbTopology(
                list(range(config.n_processes)), salt=config.salt)
            self.ctx = self._new_context(len(self.topology))
            spawn_nodes(self.ctx, self.topology, pids=config.owned_pids)
            self._start_loops()
        self.control.adopt(cluster_map, time.monotonic())

    def wire_joining(self, cluster_map: ClusterMap) -> None:
        """Bootstrap of a host joining a live deployment.

        No genesis snapshot actors: this host's pids are *new* and enter
        the overlay through routed JOINs (the coordinator starts the
        routes once our ``join_commit`` lands).  Until each virtual node
        is granted and spliced it runs in joining mode, relaying through
        its responsible node exactly as on the simulators.
        """
        config = self.config
        self.ctx = self._new_context(3 * max(1, len(cluster_map.pid_owner)))
        for pid in config.owned_pids:
            join_pid(self.ctx, pid)
            self.joining_pids.add(pid)
        self._start_loops()
        self.control.adopt(cluster_map, time.monotonic())

    def _new_context(self, n_nodes: int) -> ClusterContext:
        """The actors' shared context, for an overlay of ``n_nodes``."""
        ctx = ClusterContext(
            self.runtime,
            salt=self.config.salt,
            route_steps=route_steps_for(n_nodes),
            spec=self.spec,
            n_priorities=self.config.n_priorities,
            on_update_over=self._update_over,
            tracer=self.tracer,
        )
        ctx.records = self.records
        return ctx

    def _start_loops(self) -> None:
        loop = asyncio.get_running_loop()
        self.runtime.start(loop)
        self.runtime.kick()
        self._housekeeping_task = loop.create_task(self._housekeeping())
        self._heartbeat_task = loop.create_task(self._heartbeat_loop())

    async def _housekeeping(self) -> None:
        """Periodic host duties: flush parked messages, sweep transit
        spans, and the control plane's (publish forwards, re-offer a
        recovery dump)."""
        while not self._stopping:
            await asyncio.sleep(0.1)
            if self._unrouted:
                self._replay_unrouted()
            if self.tracer.tracing:
                # transit spans (wire-tagged routing work for ops that
                # complete elsewhere) never see a finish; sweep them
                self.tracer.expire(30.0)
            # forwards are pushed *as nodes depart*, not only at
            # retirement: the map spreads each one within a broadcast
            # round-trip, so peers stop targeting a draining host long
            # before its process exits and the frames-in-flight tail at
            # link teardown stays empty in the common case
            self.control.tick(time.monotonic(), self.runtime.forwards)

    async def _heartbeat_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.heartbeat_seconds)
            self.control.beat(time.monotonic())

    # -- following the cluster map (DataPlane) ---------------------------------
    def map_changed(self, cluster: ClusterMap) -> None:
        """Reconcile links and forwards with the map just adopted."""
        me = self.config.host_index
        for index, address in cluster.hosts.items():
            if index != me and index not in self.peers:
                link = PeerLink(
                    (address[0], int(address[1])),
                    me,
                    on_write=self.count_write,
                    on_error=self.note_error,
                )
                self.peers[index] = link
                link.start()
        for index in [i for i in self.peers if i not in cluster.hosts]:
            link = self.peers.pop(index)
            pending = link.drain_pending()
            link.close()
            self.resends.forget(index)
            # frames queued for the departed host would vanish with the
            # link; re-dispatch them through its published forwards (the
            # continuous `forwards` pushes make this the rare tail, not
            # the common path)
            for frame in pending:
                self._redispatch_peer_frame(frame)
        self.runtime.add_forwards(cluster.forwards)
        self._replay_unrouted()

    def _redispatch_peer_frame(self, message: dict) -> None:
        if self.control.recovering:
            # the link died because its host was crash-evicted: everything
            # queued for it predates the rebuild and is superseded by it
            return
        op = message.get("op")
        if op == "msg":
            self.runtime.deliver(
                message["dest"], message["action"], message["payload"])
        elif op == "complete":
            # re-resolve the holder: learning a fact twice is harmless,
            # and `deliver` follows the departed host's custodian chain
            self.records.deliver(message["req"], decode_complete(message))
        # control frames (host_map, leave, ...) are superseded by the
        # map update that triggered this drop: nothing to re-send

    def push_clients(self, frame: dict) -> None:
        """Push to every client session (peers and the launcher read none)."""
        for conn in self.clients:
            conn.send(frame)

    # -- remote messaging ----------------------------------------------------
    def _send_remote(self, dest: int, action: int, payload: tuple) -> None:
        control = self.control
        cluster = control.cluster
        if self._stopping or cluster.recovery_epoch != control.gen:
            # mid-recovery the wave engine is being torn down: a stale
            # actor task's last send is pre-crash wave state the rebuild
            # re-derives from records — and the fresh cluster map no
            # longer matches the old topology's vid numbering
            return
        owner = cluster.owner_of(pid_of(dest))
        if owner == self.config.host_index:
            # destination departed locally with no forward: protocol bug
            self.note_error(
                f"vid {dest}", f"message {action} for unknown local actor {dest}"
            )
            return
        link = self.peers.get(owner) if owner is not None else None
        if link is None:
            # the pid belongs to a join (or a map) we have not learned of
            # yet: park the message until a newer cluster map arrives
            self._unrouted.append((time.monotonic(), dest, action, payload))
            return
        link.send(self._msg_frame(dest, action, payload))

    def _msg_frame(self, dest: int, action: int, payload: tuple) -> dict:
        frame = {"op": "msg", "dest": dest, "action": action,
                 "gen": self.control.gen, "payload": payload}
        tracer = self.tracer
        if tracer.tracing:
            # tag frames that carry a traced op's req_id so the peer
            # opens a span too (the catalog's trace_req says where it
            # sits) — untraced traffic pays one bool check
            spec = CATALOG[action]
            if spec.trace_req is not None:
                req = (payload[4] if spec.routed else payload)[spec.trace_req]
                if tracer.active(req):
                    frame["tr"] = req
        return frame

    def _replay_unrouted(self) -> None:
        cluster = self.control.cluster
        parked, self._unrouted = self._unrouted, []
        for stamped_at, dest, action, payload in parked:
            owner = cluster.owner_of(pid_of(dest))
            if owner is not None and owner in self.peers:
                self.peers[owner].send(self._msg_frame(dest, action, payload))
            elif time.monotonic() - stamped_at > _UNROUTED_GRACE:
                self.note_error(
                    f"vid {dest}",
                    f"message {action} undeliverable: no owner for pid "
                    f"{pid_of(dest)} in cluster map v{cluster.version}",
                )
            else:
                self._unrouted.append((stamped_at, dest, action, payload))

    def _send_peer(self, host: int, frame: dict) -> bool:
        """The control plane's way out: one frame to a live host; False
        when no link leads there."""
        link = self.peers.get(host)
        if link is None:
            return False
        link.send(frame)
        return True

    def _send_fenced(self, host: int, frame: dict) -> bool:
        """The record plane's way out: a ``complete`` or ``replica_put``,
        stamped with the recovery generation."""
        return self._send_peer(host, {**frame, "gen": self.control.gen})

    # -- frame dispatch ------------------------------------------------------
    def handle_frame(self, conn: Connection, message: dict) -> None:
        """A frame off a socket: count it, unwrap a batch, drop the
        duplicate of a reconnect resend, dispatch."""
        op = message.get("op")
        self._frames_in.inc()
        if op == "batch":
            # coalesced peer frames: each subframe carries its own
            # src/seq/gen, so dedup + the generation fence apply per
            # subframe
            for sub in message.get("frames", []):
                self.handle_frame(conn, sub)
            return
        entry = self._frame_table.get(op)
        if entry is not None and entry[1] == FENCED_DEDUP:
            src = message.get("src")
            if src is not None:
                self.control.detector.heard_from(src, time.monotonic())
                if not self.resends.fresh(src, message["seq"]):
                    return
        self.dispatch(conn, message)

    def dispatch(self, conn: Connection, message: dict) -> None:
        """Run one frame's handler once its admission rule lets it in —
        or leave it with the control plane's hold queue, which replays it
        here once this host can (see
        :meth:`repro.net.control.ControlPlane.admit`)."""
        op = message.get("op")
        try:
            entry = self._frame_table.get(op)
            if entry is None:
                conn.send({"op": "error", "message": f"unknown op {op!r}"})
                return
            handler, admission = entry
            if admission == CLIENT:
                # a held submit whose session hung up meanwhile is not
                # replayed: its client resubmits what was in limbo
                if conn not in self.connections:
                    return
                self.clients.add(conn)
            elif self._stopping and admission in (FENCED_DEDUP, FENCED):
                return
            if self.control.admit(conn, message, admission):
                handler(conn, message, time.monotonic())
        except Exception:
            self.note_error(f"frame {op!r}", traceback.format_exc())

    def _on_msg(self, conn, message: dict, now: float) -> None:
        action = message["action"]
        if type(action) is not int or not 0 <= action < len(CATALOG):
            # Node.handle indexes the catalog unchecked: -1 or True
            # would run another message's handler
            self.note_error("frame 'msg'", f"no actor message {action!r}")
            return
        self._trace_transit(message)
        self.runtime.deliver(message["dest"], action, message["payload"])

    def _on_complete(self, conn, message: dict, now: float) -> None:
        # facts for a record this host keeps
        self._trace_transit(message)
        self.records.apply(message["req"], decode_complete(message))

    def _trace_transit(self, message: dict) -> None:
        tr = message.get("tr")
        if tr is not None:
            # a peer is routing (or completing) a traced op through us:
            # open a span so our local hop/valuation stamps land too
            self.tracer.ensure(int(tr))

    def _on_replica_put(self, conn, message: dict, now: float) -> None:
        # a ring predecessor mirrors a record here
        req_id = self.records.put_replica(message["record"])
        if message.get("ack"):
            self._send_peer(int(message["origin"]),
                            {"op": "replica_ack", "req": req_id})

    def _on_replica_ack(self, conn, message: dict, now: float) -> None:
        self.records.acked(int(message["req"]))

    def _on_submit_batch(self, conn, message: dict, now: float) -> None:
        for sub in message.get("subs", []):
            req_id, pid, kind, item = sub[0], sub[1], sub[2], sub[3]
            unpacked = {"op": "submit", "req": req_id, "pid": pid,
                        "kind": kind, "item": item}
            if len(sub) > 4 and sub[4]:
                unpacked["pri"] = sub[4]
            self._on_submit(conn, unpacked, now)

    def _on_hello(self, conn, message: dict, now: float) -> None:
        control = self.control
        if not control.wired:
            # the welcome's cluster map is what clients shard by
            conn.send({"op": "error", "message": "host not wired yet"})
            return
        self.clients.add(conn)
        nonce = self._next_nonce
        self._next_nonce += 1
        conn.send({
            "op": "welcome",
            "host": self.config.host_index,
            "n_hosts": len(control.cluster.hosts),
            "n_processes": self.config.n_processes,
            "structure": self.config.structure,
            "nonce": nonce,
            "id_slots": self.config.id_slots,
            "n_priorities": self.config.n_priorities,
            "trace_sample": self.config.trace_sample,
            "map": control.cluster.to_json(),
        })

    def _on_wire(self, conn, message: dict, now: float) -> None:
        self.wire_genesis(ClusterMap.from_json(message["map"]))
        conn.send({"op": "wired", "host": self.config.host_index})

    def _on_health(self, conn, message: dict, now: float) -> None:
        if message.get("detail") == "status":
            conn.send({"op": "health", **build_status(self)})
        else:
            conn.send({"op": "health", **build_health(self)})

    def _on_collect(self, conn, message: dict, now: float) -> None:
        conn.send(
            {
                "op": "records",
                "host": self.config.host_index,
                "records": self.records.dump(),
                "errors": self.errors + self.control.adopted_errors,
            }
        )

    def _on_metrics(self, conn, message: dict, now: float) -> None:
        conn.send(
            {
                "op": "metrics",
                "host": self.config.host_index,
                "summary": self.runtime.metrics.summary(),
                "phases": self.tracer.phase_summary(),
                "registry": self.telemetry.snapshot(),
            }
        )

    def _on_ping(self, conn, message: dict, now: float) -> None:
        cluster = self.control.cluster
        conn.send(
            {
                "op": "pong",
                "host": self.config.host_index,
                "wired": self.control.wired,
                "joining": sorted(self.joining_pids),
                "draining": self.control.draining,
                "map_version": 0 if cluster is None else cluster.version,
                "update_epoch": self.update_epoch,
                "ops_port": self.ops_port,
            }
        )

    def _on_shutdown(self, conn, message: dict, now: float) -> None:
        conn.send({"op": "bye", "host": self.config.host_index})
        asyncio.get_running_loop().call_soon(self.stop)

    # -- membership, the actors' side (DataPlane) ------------------------------
    def start_joins(self, pids: list[int]) -> None:
        """Coordinator: route a JOIN for each virtual node of ``pids``."""
        starter = self._route_starter()
        for pid in pids:
            join_pid(self.ctx, pid, spawn=False, via=starter)

    def _route_starter(self):
        """A local on-cycle middle node to start routed JOINs from."""
        for actor in self.runtime.actors.values():
            if actor.kind == MIDDLE and not actor.joining and not actor.replaced:
                return actor
        raise RuntimeError("no integrated middle node to route from")

    def start_drain(self) -> None:
        """Send every local actor off through LEAVE; retire once empty."""
        for actor in list(self.runtime.actors.values()):
            actor.start_leave()
        self.runtime.kick()
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain_loop()
        )

    async def _drain_loop(self) -> None:
        """Wait for this host to empty out, then hand everything over.

        Empty means: every local actor departed through the LEAVE/update
        machinery *and* every locally originated record completed (late
        completions arrive as `complete` syncs from the nodes that
        adopted our unflushed requests).  And the map must show us
        leaving: the coordinator refuses a `retire` from a host it does
        not know to be draining.  An eviction cancels this task
        (:meth:`drop`).
        """
        while not self._stopping:
            await asyncio.sleep(0.1)
            if self.runtime.actors:
                continue
            if any(not rec.completed for rec in self.records.local.values()):
                continue
            if self.config.host_index in self.control.cluster.leaving:
                break
        if self._stopping:
            return
        await self._retire()

    async def _retire(self) -> None:
        cluster = self.control.cluster
        address = cluster.hosts[cluster.coordinator]
        frame = {
            "op": "retire",
            "host": self.config.host_index,
            "records": self.records.dump(),
            "errors": list(self.errors),
            "forwards": {str(k): v for k, v in self.runtime.forwards.items()},
        }
        for _attempt in range(20):
            try:
                await request_async(address, frame, "retired", timeout=None)
                break
            except (ConnectionError, OSError):
                await asyncio.sleep(0.25)
        # flush our own outbound links, then linger so peers can push
        # stragglers through our forwarding table before the process goes
        # away (their steady-state traffic stopped when the continuous
        # `forwards` pushes rerouted our departed vids)
        deadline = time.monotonic() + 2.0
        while (
            any(not link.idle for link in self.peers.values())
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.05)
        await asyncio.sleep(_RETIRE_LINGER)
        self.stop()

    # -- update-phase hook ---------------------------------------------------
    def _update_over(self, epoch: int, members: int = 0) -> None:
        """Runs on every local node's UPDATE_OVER: promote integrated
        joiners and push one notification per epoch to client sessions."""
        self.update_epoch = max(self.update_epoch, epoch)
        promote_joiners(self.runtime.actors, self.joining_pids)
        if epoch > self._pushed_epoch:
            self._pushed_epoch = epoch
            self.push_clients({
                "op": "update_over",
                "host": self.config.host_index,
                "epoch": epoch,
                "members": members,
            })

    # -- request intake ------------------------------------------------------
    def _on_submit(self, conn, message: dict, now: float) -> None:
        pid = message["pid"]
        req_id = message["req"]
        priority = int(message.get("pri", 0))
        if not 0 <= priority < max(1, self.config.n_priorities):
            # a buggy/foreign client slipped past the client-side check:
            # refuse loudly rather than corrupt the anchor's class arrays
            conn.send(
                {"op": "error",
                 "message": f"priority {priority} outside "
                            f"[0, {self.config.n_priorities}) (req {req_id})"}
            )
            return
        cluster = self.control.cluster
        owner = cluster.owner_of(pid)
        node = self.runtime.actors.get(vid_of(pid, MIDDLE))
        if owner != self.config.host_index or node is None:
            # not rejectable with certainty by the client: its map was
            # stale (join/leave raced the submission).  Send the current
            # map along so one round-trip re-shards the retry.
            conn.send({
                "op": "rejected",
                "req": req_id,
                "pid": pid,
                "reason": (
                    f"pid {pid} not serviceable by host "
                    f"{self.config.host_index}"
                    + (" (draining)" if self.control.draining else "")
                ),
                "map": cluster.to_json(),
            })
            return
        idx = self._op_counts.get(pid, 0)
        self._op_counts[pid] = idx + 1
        rec = NetOpRecord(
            req_id,
            pid,
            idx,
            message["kind"],
            message["item"],
            self.runtime.now,
            priority=priority,
        )
        # registered and mirrored to the replica holders before the wave
        # starts; its hooks replicate the value and gate the DONE push
        self.records.open(rec)
        self._submitters[req_id] = conn
        if message.get("tr") is not None:
            # the client sampled this op (deterministic req_id hash, see
            # repro.telemetry.tracing): span it here regardless of our
            # own rate — local_op's on_submit stamps the first mark
            self.tracer.ensure(req_id, kind=rec.kind, pid=pid)
        node.local_op(rec)

    def _push_done(self, rec: NetOpRecord) -> None:
        # client-visible completion: close the span here so the (ack-
        # gated) replication window is attributed to the deliver phase;
        # a span already closed where the DHT op landed stays closed
        traced = self.tracer.active(rec.req_id)
        if traced:
            self.tracer.finish(rec.req_id, result="acked")
        conn = self._submitters.pop(rec.req_id, None)
        if conn is not None:
            frame = {
                "op": "done",
                "req": rec.req_id,
                "kind": rec.kind,
                "result": rec.result,
            }
            if traced:
                frame["tr"] = rec.req_id
            conn.send(frame)

    # -- recovery, the actors' side (DataPlane) --------------------------------
    def drop(self) -> None:
        """Everything that belongs to the dead epoch: the rebuild
        re-derives it from the merged record set.  A drain in progress is
        part of it — left running, its loop would read the empty actor
        table as "drained" and retire the host mid-rebuild."""
        if self._drain_task is not None:
            self._drain_task.cancel()
            self._drain_task = None
        self.runtime.reset()             # every local actor is rebuilt
        self._unrouted.clear()

    def respawn(self, cluster: ClusterMap, anchor, elements, reruns) -> int:
        """Spawn this host's shard of the overlay ``cluster`` describes."""
        config = self.config
        self.topology = LdbTopology(sorted(cluster.pid_owner), salt=config.salt)
        self.ctx = self._new_context(len(self.topology))
        self.joining_pids.clear()
        nodes = spawn_nodes(
            self.ctx, self.topology, pids=cluster.pids_of(config.host_index)
        )
        for node in nodes:
            if node.is_anchor and anchor:
                node.anchor_state = self.spec.anchor_state(
                    config.n_priorities
                ).restore(tuple(anchor))
        self._preload_stores(elements)
        # re-run the never-ordered tail: each record restarts at the host
        # that keeps it (its origin while that lives, its custodian since)
        kept = filter(None, map(self.records.get, reruns))
        for obj in sorted(kept, key=lambda rec: (rec.pid, rec.idx)):
            node = self.runtime.actors.get(vid_of(obj.pid, MIDDLE))
            if node is None:
                # the record's own pid died with its host: any integrated
                # local middle node may sponsor the re-run
                try:
                    node = self._route_starter()
                except RuntimeError:
                    self.note_error(
                        "rebuild", f"no node to re-run req {obj.req_id}"
                    )
                    continue
            node.local_op(obj)
        self.runtime.kick()
        return len(self.runtime.actors)

    def _preload_stores(self, elements) -> None:
        """Seed the rebuilt DHT shard with the replayed live elements:
        each entry is ``(*position, element)``, the position being what
        stage 4 would have placed the element at."""
        spec = self.spec
        salt = self.config.salt
        for *position, element in elements:
            position = [int(part) for part in position]
            key = spec.key(*position, salt)
            node = self.runtime.actors.get(self.topology.owner_of(key))
            if node is None:
                continue  # another host's shard preloads it
            if spec.ticketed:
                node.store.put(key, position[-1], element)
            else:
                node.store.put(key, element)

    # -- error surfacing -----------------------------------------------------
    def _actor_error(self, actor_id: int, exc: BaseException) -> None:
        self.note_error(f"actor {actor_id}", "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ))

    def note_error(self, where: str, detail: str) -> None:
        entry = f"[host {self.config.host_index}] {where}: {detail}"
        self.errors.append(entry)
        print(entry, flush=True)


async def run_host(config: HostConfig, ready_prefix: str = "SKUEUE-READY") -> None:
    """Run one host until a `shutdown` frame arrives.

    Prints ``{ready_prefix} <host_index> <port>`` once listening — the
    launcher parses this line to learn the ephemeral port.
    """
    host, _port = await _start_announced(config, ready_prefix)
    await host.wait_stopped()


async def _start_announced(config: HostConfig, ready_prefix: str):
    host = NodeHost(config)
    port = await host.start()
    print(f"{ready_prefix} {config.host_index} {port}", flush=True)
    if host.ops_port:
        # announced *after* READY so launchers parsing only the READY
        # line keep working; `skueue-ops` scrapes this one
        print(f"SKUEUE-OPS {config.host_index} {host.ops_port}", flush=True)
    return host, port


async def run_joining_host(
    seed_address: tuple[str, int],
    n_pids: int = 1,
    bind_host: str = "127.0.0.1",
    port: int = 0,
    ready_prefix: str = "SKUEUE-READY",
) -> None:
    """Join a live deployment as a brand-new host and serve until stopped.

    The join choreography (frames catalogued in docs/PROTOCOL.md):

    1. ``hello`` to any live host — the ``welcome`` carries the cluster
       map, which names the coordinator;
    2. ``join`` to the coordinator — it reserves our host_index and a
       batch of fresh pids and returns the deployment config;
    3. bind and announce (READY line), so the operator learns our port;
    4. ``join_commit`` with our address — the coordinator publishes the
       new map to every host and client and starts routed JOINs for our
       virtual nodes, which integrate through the paper's Section-IV
       machinery while clients keep submitting.
    """
    welcome = await request_async(seed_address, {"op": "hello"}, "welcome")
    seed_map = ClusterMap.from_json(welcome["map"])
    coordinator_address = seed_map.hosts[seed_map.coordinator]
    reply = await request_async(
        coordinator_address, {"op": "join", "pids": n_pids}, "join_ok"
    )
    config = HostConfig(
        host_index=reply["host"],
        bind_host=bind_host,
        port=port,
        owned=list(reply["pids"]),
        **reply["config"],
    )
    host, actual_port = await _start_announced(config, ready_prefix)
    host.wire_joining(ClusterMap.from_json(reply["map"]))
    await request_async(
        coordinator_address,
        {
            "op": "join_commit",
            "host": config.host_index,
            "address": [bind_host, actual_port],
        },
        "join_done",
    )
    await host.wait_stopped()
