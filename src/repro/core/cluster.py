"""The simulator cluster: one class for every structure and both engines.

A :class:`SkueueCluster` owns one simulation engine (``runner="sync"``
rounds or ``"async"`` events), builds the LDB over an initial set of
processes and serves the structure named by ``structure=`` (any name of
:mod:`repro.core.structures`: queue, stack, heap).  It exposes the
paper's four operations — INSERT/REMOVE through :meth:`SkueueCluster.submit`
plus JOIN/LEAVE — along with run helpers and introspection for tests,
examples and benchmarks.

It is also the sync/async backend of the public API:
``repro.connect("sync"|"async")`` builds one and wraps it in a session,
so ``session.backend is session.cluster``.  Waiting on a request *drives
the engine* until its record completes, bounded by ``max_rounds`` (a
:class:`RuntimeError` past the bound is a protocol bug, not slow
progress); timeouts in seconds mean nothing here and are ignored.

Typical (engine-level) use::

    from repro.core.requests import INSERT, REMOVE

    cluster = SkueueCluster(n_processes=32, seed=7)
    cluster.submit(3, INSERT, "job-1")
    deq = cluster.submit(20, REMOVE)
    cluster.run_until_done()
    assert cluster.result_of(deq) == "job-1"

The number of De Bruijn routing bits is no longer a facade substitution:
the anchor piggybacks its network-size estimate on every UPDATE_OVER
broadcast and each node refreshes ``ctx.route_steps`` from it (see
DESIGN.md, "Membership over TCP") — identically on the simulators and on
a live TCP deployment.
"""

from __future__ import annotations

from repro.core.actions import A_JOIN_RT
from repro.core.protocol import ClusterContext, Node
from repro.core.requests import OpRecord, user_result
from repro.core.structures import check_priority, get_structure
from repro.overlay.ldb import (
    LEFT,
    MIDDLE,
    RIGHT,
    LdbTopology,
    pid_of,
    vid_of,
    virtual_label,
)
from repro.overlay.routing import route_steps_for
from repro.sim.async_runner import AsyncRunner
from repro.sim.metrics import Metrics
from repro.sim.sync_runner import SyncRunner
from repro.util.hashing import label_of
from repro.util.rng import RngStreams

__all__ = [
    "SkueueCluster",
    "join_pid",
    "promote_joiners",
    "spawn_nodes",
]


def spawn_nodes(ctx, topology, pids=None) -> list:
    """Instantiate protocol nodes over a topology snapshot.

    Shared bootstrap of every execution substrate: the sim clusters spawn
    all nodes (``pids=None``), a TCP :class:`~repro.net.server.NodeHost`
    spawns only its shard while the snapshot — identical on every host —
    provides the global pred/succ wiring and the anchor (the minimum
    label).  The three virtual nodes of one process are always spawned
    together, which is what keeps same-process sibling reads local.
    """
    runtime = ctx.runtime
    anchor_vid = topology.min_vid()
    wanted = None if pids is None else set(pids)
    nodes = []
    for vid in topology.vids:
        if wanted is not None and pid_of(vid) not in wanted:
            continue
        pred = topology.pred(vid)
        succ = topology.succ(vid)
        node = Node(
            ctx,
            vid,
            topology.label(vid),
            pred,
            topology.label(pred),
            succ,
            topology.label(succ),
            is_anchor=(vid == anchor_vid),
        )
        if node.is_anchor:
            # seed the size estimate piggybacked on UPDATE_OVER broadcasts
            node.anchor_state.members = len(topology)
        runtime.add_actor(node)
        nodes.append(node)
    return nodes


def join_pid(ctx, pid: int, spawn: bool = True, via=None) -> None:
    """Bootstrap a joining process, one virtual node at a time.

    For each of ``pid``'s three virtual nodes (left, middle, right):
    with ``spawn``, add its joining :class:`Node` to ``ctx.runtime``; with
    ``via`` (an integrated node), route its JOIN from there.  The sim
    clusters do both; over TCP the joining host spawns and the
    coordinator routes.
    """
    mid = label_of(pid, salt=ctx.salt)
    for kind in (LEFT, MIDDLE, RIGHT):
        vid = vid_of(pid, kind)
        lbl = virtual_label(mid, kind)
        if spawn:
            node = Node(ctx, vid, lbl, -1, -1.0, -1, -1.0, joining=True)
            ctx.runtime.add_actor(node)
        if via is not None:
            via._route_start(A_JOIN_RT, lbl, (vid, lbl))


def promote_joiners(actors, joining: set) -> list[int]:
    """Remove from ``joining`` every pid whose three virtual nodes are
    all present in ``actors`` and integrated; returns those pids."""
    done = []
    for pid in list(joining):
        nodes = [actors.get(vid_of(pid, kind)) for kind in (LEFT, MIDDLE, RIGHT)]
        if all(node is not None and not node.joining for node in nodes):
            joining.discard(pid)
            done.append(pid)
    return done


class SkueueCluster:
    """A simulated deployment of one structure over ``n_processes``
    processes; also the sync/async session backend of :mod:`repro.api`."""

    def __init__(
        self,
        n_processes: int,
        seed: int = 0,
        runner: str = "sync",
        structure: str = "queue",
        delay_policy=None,
        shuffle_delivery: bool = True,
        store_samples: bool = False,
        n_priorities: int = 4,
        trace_sample: float = 0.0,
        max_rounds: int = 200_000,
    ) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        spec = get_structure(structure)
        #: registry name of the structure served; the nodes' discipline
        #: and the metric vocabulary follow from it
        self.structure = structure
        #: engine budget of every wait and run helper (rounds on sync,
        #: events on async)
        self.max_rounds = max_rounds
        self.rng = RngStreams(seed)
        metrics = Metrics(store_samples=store_samples)
        if runner == "sync":
            self.runtime = SyncRunner(
                self.rng,
                metrics,
                # sync-only: shuffle each round's delivery order (the
                # non-FIFO channels of the asynchronous model)
                shuffle_delivery=shuffle_delivery,
            )
        elif runner == "async":
            self.runtime = AsyncRunner(
                self.rng,
                metrics,
                delay_policy=delay_policy,
            )
        else:
            raise ValueError(f"unknown runner {runner!r}")
        salt = f"skueue-{seed}"
        self.topology = LdbTopology(list(range(n_processes)), salt=salt)
        # per-op lifecycle tracing (repro.telemetry): stamped in engine
        # rounds, sampled by a deterministic req_id hash — no RNG stream
        # is consumed, so traced and untraced runs schedule identically
        self.tracer = None
        if trace_sample > 0.0:
            from repro.telemetry import Tracer

            self.tracer = Tracer(
                trace_sample,
                clock=lambda: self.runtime.now,
                time_scale=1000.0,  # one round -> 1 ms in the trace view
                phase_buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            )
        self.ctx = ClusterContext(
            self.runtime,
            salt=salt,
            route_steps=route_steps_for(len(self.topology)),
            spec=spec,
            n_priorities=n_priorities,
            on_update_over=self._on_update_over,
            tracer=self.tracer,
        )
        spawn_nodes(self.ctx, self.topology)
        self.runtime.kick()
        self._op_counts: dict[int, int] = {}
        #: integrated processes, leavers included until they are gone
        self.members: set[int] = set(range(n_processes))
        self.joining_pids: set[int] = set()
        self.leaving_pids: set[int] = set()
        self._next_pid = n_processes
        self._closed = False

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Shut the engine down deterministically (idempotent).

        On the simulators this drops actors and queued events; the TCP
        deployment facade (:class:`repro.net.launcher.NetDeployment`)
        exposes the same method to close sockets and reap processes.
        """
        if not self._closed:
            self._closed = True
            self.runtime.close()

    def __enter__(self) -> "SkueueCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- metrics / records / telemetry -------------------------------------------
    @property
    def metrics(self) -> Metrics:
        """The run's :class:`~repro.sim.metrics.Metrics`; calling it
        answers its summary, as a session backend's ``metrics()``."""
        return self.runtime.metrics

    @property
    def records(self) -> list[OpRecord]:
        return self.ctx.records

    def history(self) -> list[OpRecord]:
        """Every operation record issued on this cluster."""
        return list(self.ctx.records)

    def telemetry(self) -> dict:
        """The run-metrics summary plus the tracer's phase histograms,
        answered as a single host ``0``."""
        payload: dict = {"summary": self.metrics.summary()}
        if self.tracer is not None:
            payload["phases"] = self.tracer.phase_summary()
        return {0: payload}

    def trace(self) -> dict:
        """Chrome trace-event JSON of the sampled op lifecycles (empty
        envelope when the cluster was built without ``trace_sample``)."""
        if self.tracer is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return self.tracer.export()

    @property
    def now(self) -> float:
        return self.runtime.now

    @property
    def n_priorities(self) -> int:
        return self.ctx.n_priorities

    # -- operations -------------------------------------------------------------------
    def live_pids(self) -> list[int]:
        """Pids that accept operations right now: integrated and not
        leaving (``0..n-1`` until the membership changes)."""
        return sorted(self.members - self.leaving_pids)

    @property
    def n_processes(self) -> int:
        """Live process count (follows joins and leaves)."""
        return len(self.members) - len(self.leaving_pids)

    def submit(
        self, pid: int, kind: int, item: object = None, priority: int = 0
    ) -> int:
        """Issue one operation (INSERT/REMOVE) at process ``pid``;
        returns its request id.  ``priority`` is the Skeap class of a
        heap INSERT and must be 0 on every other structure."""
        return self._inject(self._entry(pid, kind, priority), pid, kind, item, priority)

    def submit_many(self, ops: list[tuple[int, int, object, int]]) -> list[int]:
        """Issue ``(pid, kind, item, priority)`` operations in order.

        Every operation is validated before the first is issued, so a
        rejected batch leaves nothing in flight."""
        nodes = [self._entry(pid, kind, priority) for pid, kind, _, priority in ops]
        return [
            self._inject(node, *op) for node, op in zip(nodes, ops)
        ]

    def _entry(self, pid: int, kind: int, priority: int) -> Node:
        """The node an operation at ``pid`` enters through; raises
        :class:`ValueError` if ``pid`` takes no operations or the
        priority does not fit the structure."""
        if pid in self.leaving_pids:
            raise ValueError(f"process {pid} is leaving and takes no requests")
        check_priority(self.structure, kind, priority, self.ctx.n_priorities)
        node = self.runtime.actors.get(vid_of(pid, MIDDLE))
        if node is None:
            raise ValueError(f"process {pid} is not in the system")
        return node

    def _inject(
        self, node: Node, pid: int, kind: int, item: object, priority: int
    ) -> int:
        idx = self._op_counts.get(pid, 0)
        self._op_counts[pid] = idx + 1
        rec = OpRecord(
            len(self.ctx.records), pid, idx, kind, item, self.runtime.now,
            priority=priority,
        )
        self.ctx.records.append(rec)
        node.local_op(rec)
        return rec.req_id

    # -- completion -------------------------------------------------------------------
    def _record(self, req_id: int) -> OpRecord:
        if not 0 <= req_id < len(self.ctx.records):
            raise KeyError(f"req_id {req_id} was never issued on this cluster")
        return self.ctx.records[req_id]

    def result_of(self, req_id: int):
        """Result of a request: ``True`` for a completed insert, the
        removed item or ``BOTTOM`` for a completed removal, ``None``
        while still pending.  Raises :class:`KeyError` for a req_id that
        was never issued on this cluster."""
        rec = self._record(req_id)
        return user_result(rec.kind, rec.result) if rec.completed else None

    def is_done(self, req_id: int) -> bool:
        return self._record(req_id).completed

    def wait(self, req_id: int, timeout: float | None = None):
        """Drive the engine until ``req_id`` completes; its result."""
        rec = self._record(req_id)
        if not rec.completed:
            self.runtime.run_until(lambda: rec.completed, self.max_rounds)
        return self.result_of(req_id)

    async def await_result(self, req_id: int):
        # the engine completes synchronously under the hood; awaiting is
        # still useful so one async workload script runs unmodified
        # against every backend
        return self.wait(req_id)

    def wait_all(self, timeout: float | None = None) -> None:
        self.run_until_done()

    # -- membership (Section IV) ------------------------------------------------------
    def can_join(self, pid: int) -> bool:
        """Would :meth:`join` accept ``pid`` right now?

        The deterministic guard scripted churn (the schedule fuzzer's
        churn scripts, ``tests/conftest.drive_random``) uses to skip
        impossible events instead of racing an exception.
        """
        return (
            pid not in self.members
            and pid not in self.joining_pids
            and vid_of(pid, MIDDLE) not in self.runtime.actors
        )

    def can_leave(self, pid: int, margin: int = 1) -> bool:
        """Would :meth:`leave` accept ``pid``, keeping ``margin`` extra
        live processes beyond the cluster's own refuse-to-empty floor?"""
        return (
            pid in self.members
            and pid not in self.leaving_pids
            and self.n_processes > 1 + margin
        )

    def can_submit(self, pid: int) -> bool:
        """Would :meth:`submit` accept an operation at ``pid`` right now?
        (Not leaving, and its middle virtual node is locally present.)"""
        return (
            pid not in self.leaving_pids
            and vid_of(pid, MIDDLE) in self.runtime.actors
        )

    def join(self, new_pid: int | None = None, via_pid: int | None = None) -> int:
        """A new process joins via an existing one; returns its pid."""
        if new_pid is None:
            new_pid = self._next_pid
        if not self.can_join(new_pid):
            raise ValueError(f"process {new_pid} already present")
        self._next_pid = max(self._next_pid, new_pid + 1)
        if via_pid is None:
            via_pid = next(
                pid
                for pid in self.live_pids()
                if vid_of(pid, MIDDLE) in self.runtime.actors
            )
        join_pid(self.ctx, new_pid, via=self.runtime.actors[vid_of(via_pid, MIDDLE)])
        self.joining_pids.add(new_pid)
        return new_pid

    def leave(self, pid: int) -> None:
        """Process ``pid`` asks to leave (takes effect at an update phase)."""
        if pid not in self.members:
            raise ValueError(f"process {pid} is not live")
        if self.n_processes <= 1:
            raise ValueError("refusing to empty the cluster")
        self.leaving_pids.add(pid)
        for kind in (LEFT, MIDDLE, RIGHT):
            self.runtime.actors[vid_of(pid, kind)].start_leave()

    def _on_update_over(self, epoch: int, members: int = 0) -> None:
        self.members.update(promote_joiners(self.runtime.actors, self.joining_pids))
        # retire leavers whose three virtual nodes all departed
        for pid in list(self.leaving_pids):
            if all(
                vid_of(pid, kind) not in self.runtime.actors
                for kind in (LEFT, MIDDLE, RIGHT)
            ):
                self.leaving_pids.discard(pid)
                self.members.discard(pid)
        # ctx.route_steps is refreshed by the protocol itself from the
        # member estimate piggybacked on UPDATE_OVER (no facade substitute)

    # -- stepping -------------------------------------------------------------------------
    def step(self, rounds: int = 1) -> None:
        self.runtime.run_for(rounds)

    def run_until_done(self, max_rounds: int | None = None) -> None:
        """Advance until every generated request completed (within
        ``max_rounds``, the cluster's bound by default)."""
        self.runtime.run_until(lambda: self.metrics.all_done, self._bound(max_rounds))

    def run_until_settled(self, max_rounds: int | None = None) -> None:
        """Advance until requests are done *and* membership is quiescent."""
        self.runtime.run_until(self._settled, self._bound(max_rounds))

    def _bound(self, max_rounds: int | None) -> int:
        return self.max_rounds if max_rounds is None else max_rounds

    def _settled(self) -> bool:
        if not self.metrics.all_done:
            return False
        if self.joining_pids or self.leaving_pids:
            return False
        for node in self.runtime.actors.values():
            if node.epoch is not None or node.joining or node.replaced or node.replacements:
                return False
        return True

    # -- introspection -----------------------------------------------------------------------
    @property
    def anchor(self):
        """The current anchor node (unique; asserted by tests)."""
        anchors = [n for n in self.runtime.actors.values() if n.is_anchor]
        if len(anchors) != 1:
            raise AssertionError(f"expected exactly one anchor, found {len(anchors)}")
        return anchors[0]

    @property
    def size(self) -> int:
        """Number of stored elements per the anchor's counters."""
        return self.anchor.anchor_state.size

    def occupancies(self) -> list[int]:
        """Stored-element counts per virtual node (Lemma 4 / Corollary 19)."""
        return [node.occupancy for node in self.runtime.actors.values()]

    def cycle_vids(self) -> list[int]:
        """Walk succ pointers once around the cycle (tests invariants)."""
        start = self.anchor.vid
        out = [start]
        node = self.runtime.actors[self.anchor.succ_vid]
        guard = len(self.runtime.actors) + 8
        while node.vid != start:
            out.append(node.vid)
            node = self.runtime.actors[node.succ_vid]
            if len(out) > guard:
                raise AssertionError("succ pointers do not close a cycle")
        return out
