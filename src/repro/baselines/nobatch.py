"""Skueue without aggregation — the batching ablation.

Every request is routed *individually* over the LDB to the anchor, which
assigns its position (same ``first``/``last`` logic) and replies; the
requester then performs its PUT/GET against the same consistent-hashing
DHT.  Without batches the anchor handles Θ(load) messages per wave
instead of one per child, so with a bounded per-round service capacity
its backlog — and hence latency — grows with the offered load, which is
exactly what Theorem 18/Corollary 16 say batching avoids.

Reuses the real overlay and storage substrates so the only difference is
the missing aggregation layer.
"""

from __future__ import annotations

from collections import deque

from repro.core.anchor import QueueAnchorState
from repro.core.requests import BOTTOM, INSERT, OpRecord
from repro.dht.storage import PARKED, QueueStore
from repro.overlay.ldb import LdbTopology, MIDDLE, vid_of
from repro.overlay.routing import initial_route_state, route_step, route_steps_for
from repro.sim.metrics import Metrics
from repro.sim.process import Actor
from repro.sim.sync_runner import SyncRunner
from repro.util.hashing import position_key
from repro.util.rng import RngStreams

__all__ = ["NoBatchQueueCluster"]

A_TO_ANCHOR = 0  # routed: request travelling to the anchor
A_POSITION = 1  # anchor -> requester: assigned position (or ⊥)
A_PUT = 2  # routed PUT
A_GET = 3  # routed GET
A_REPLY = 4  # DHT node -> requester


class _Node(Actor):
    """LDB node: routes requests, stores DHT data; the anchor assigns."""

    __slots__ = (
        "label",
        "pred_vid",
        "pred_label",
        "succ_vid",
        "succ_label",
        "is_anchor",
        "anchor_state",
        "store",
        "pending",
        "service_rate",
        "cluster",
    )

    def __init__(
        self, cluster, vid, label, pred, pred_label, succ, succ_label, is_anchor
    ):
        super().__init__(vid, cluster.runtime)
        self.cluster = cluster
        self.label = label
        self.pred_vid = pred
        self.pred_label = pred_label
        self.succ_vid = succ
        self.succ_label = succ_label
        self.is_anchor = is_anchor
        self.anchor_state = QueueAnchorState() if is_anchor else None
        self.store = QueueStore()
        self.pending: deque = deque()
        self.service_rate = cluster.anchor_service_rate

    # -- routing ------------------------------------------------------------
    def _route(self, action, key, bits, steps, ideal, extra):
        nxt, (bits, steps, ideal) = route_step(
            self.aid,
            self.label,
            self.pred_vid,
            self.succ_vid,
            self.succ_label,
            key,
            (bits, steps, ideal),
            pred_label=self.pred_label,
        )
        if nxt is None:
            self._deliver(action, key, extra)
        else:
            self.send(nxt, action, (key, bits, steps, ideal, extra))

    def route_start(self, action, key, extra):
        bits, steps, ideal = initial_route_state(
            key, self.cluster.route_steps, origin=self.label
        )
        self._route(action, key, bits, steps, ideal, extra)

    def handle(self, action, payload):
        if action == A_POSITION:
            self._on_position(payload)
        elif action == A_REPLY:
            self._on_reply(payload)
        else:
            key, bits, steps, ideal, extra = payload
            self._route(action, key, bits, steps, ideal, extra)

    def _deliver(self, action, key, extra):
        if action == A_TO_ANCHOR:
            # delivered at the leftmost node == the anchor
            self.pending.append(extra)
            self.wake_me()
        elif action == A_PUT:
            element, gen, req_id = extra
            waiter = self.store.put(key, element)
            metrics = self.cluster.metrics
            metrics.observe("enqueue", self.runtime.now - gen)
            self.cluster.records[req_id].completed = True
            if waiter is not None:
                requester, waiting_req, _ = waiter
                self.send(requester, A_REPLY, (waiting_req, element))
        elif action == A_GET:
            requester, req_id, _gen = extra
            result = self.store.get(key, extra)
            if result is not PARKED:
                self.send(requester, A_REPLY, (req_id, result))

    # -- anchor service (bounded per-round capacity) ---------------------------
    def timeout(self):
        if not self.is_anchor or not self.pending:
            return
        state = self.anchor_state
        served = 0
        while self.pending and served < self.service_rate:
            requester_vid, req_id, kind = self.pending.popleft()
            if kind == INSERT:
                state.last += 1
                self.send(requester_vid, A_POSITION, (req_id, state.last))
            else:
                if state.first <= state.last:
                    pos = state.first
                    state.first += 1
                    self.send(requester_vid, A_POSITION, (req_id, pos))
                else:
                    self.send(requester_vid, A_POSITION, (req_id, None))
            served += 1
        if self.pending:
            self.wake_me()

    # -- requester side ------------------------------------------------------------
    def _on_position(self, payload):
        req_id, position = payload
        rec = self.cluster.records[req_id]
        if position is None:
            rec.result = BOTTOM
            rec.completed = True
            self.cluster.metrics.observe("dequeue_empty", self.runtime.now - rec.gen)
            return
        key = position_key(position, self.cluster.salt)
        if rec.kind == INSERT:
            self.route_start(A_PUT, key, (rec.element, rec.gen, rec.req_id))
        else:
            self.route_start(A_GET, key, (self.aid, rec.req_id, rec.gen))

    def _on_reply(self, payload):
        req_id, element = payload
        rec = self.cluster.records[req_id]
        rec.result = element
        rec.completed = True
        self.cluster.metrics.observe("dequeue", self.runtime.now - rec.gen)

    @property
    def backlog_size(self) -> int:
        return len(self.pending)


class NoBatchQueueCluster:
    """Skueue minus batching: per-request anchor round-trips."""

    def __init__(
        self, n_processes: int, seed: int = 0, anchor_service_rate: int = 8
    ) -> None:
        self.rng = RngStreams(seed)
        self.runtime = SyncRunner(self.rng, Metrics(), shuffle_delivery=False)
        self.salt = f"nobatch-{seed}"
        self.anchor_service_rate = anchor_service_rate
        self.records: list[OpRecord] = []
        self.topology = LdbTopology(list(range(n_processes)), salt=self.salt)
        self.route_steps = route_steps_for(len(self.topology))
        self.anchor_label = None
        anchor_vid = self.topology.min_vid()
        for vid in self.topology.vids:
            succ = self.topology.succ(vid)
            pred = self.topology.pred(vid)
            node = _Node(
                self,
                vid,
                self.topology.label(vid),
                pred,
                self.topology.label(pred),
                succ,
                self.topology.label(succ),
                vid == anchor_vid,
            )
            self.runtime.add_actor(node)
            if vid == anchor_vid:
                self.anchor_label = self.topology.label(vid)
        self._op_counts: dict[int, int] = {}
        self.n_processes = n_processes
        self.anchor_vid = anchor_vid

    @property
    def metrics(self) -> Metrics:
        return self.runtime.metrics

    def submit(self, pid: int, kind: int, item=None, priority: int = 0) -> int:
        """Issue one operation (INSERT/REMOVE) at process ``pid``;
        returns its request id.  A FIFO queue: ``priority`` must be 0."""
        if priority:
            raise ValueError("the baseline queue takes no priorities")
        vid = vid_of(pid, MIDDLE)
        idx = self._op_counts.get(pid, 0)
        self._op_counts[pid] = idx + 1
        rec = OpRecord(len(self.records), pid, idx, kind, item, self.runtime.now)
        self.records.append(rec)
        self.metrics.request_generated()
        node = self.runtime.actors[vid]
        node.route_start(A_TO_ANCHOR, self.anchor_label, (vid, rec.req_id, kind))
        return rec.req_id

    def step(self, rounds: int = 1) -> None:
        self.runtime.run(rounds)

    def run_until_done(self, max_rounds: int = 1_000_000) -> None:
        self.runtime.run_until(lambda: self.metrics.all_done, max_rounds)

    @property
    def anchor_backlog(self) -> int:
        return self.runtime.actors[self.anchor_vid].backlog_size
