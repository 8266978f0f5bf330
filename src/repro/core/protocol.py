"""The Skueue protocol node: stages 1-4 of Section III.

One :class:`Node` instance is one *virtual node* of the LDB, whatever
the structure it serves.  The protocol is a continuous pipeline of
aggregation waves:

* **Stage 1** — requests buffer into the node's batch ``W``; once the
  node is not in-flight and holds a batch from every aggregation child,
  TIMEOUT combines them (own requests first, then children in a fixed
  order), remembers the decomposition plan, and sends the combined batch
  to the parent.
* **Stage 2** — the anchor turns each run of the fully combined batch
  into a position interval using its ``first``/``last`` counters.
* **Stage 3** — intervals travel back down: every node splits its
  intervals among its remembered sub-batches in combination order.
* **Stage 4** — the node owning the requests issues PUT/GET to the DHT
  (routed over the De Bruijn overlay); dequeues beyond the queue's
  current extent complete immediately with ⊥.

Empty batches ride the same waves (they are what keeps the pipeline
self-synchronising); a node sends exactly one batch per wave and waits
for its SERVE before firing again — see DESIGN.md for why this is the
faithful reading of Algorithm 1's round accounting.

Membership (JOIN/LEAVE, Section IV) lives in
:mod:`repro.core.membership`.  Where queue, stack (Section VI) and heap
(Skeap) differ — how requests buffer into a wave, which position stage 4
places each at, whether PUT/GET carry tickets and hold the next wave
back — the node asks ``ctx.spec``, its structure's entry in
:mod:`repro.core.structures`; the buffers and placements themselves are
in :mod:`repro.core.discipline`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.actions import (
    A_AGG,
    A_GET_REPLY,
    A_NUDGE,
    A_PUT_ACK,
    A_REQUEUE,
    A_RT_GET,
    A_RT_PUT,
    A_SERVE,
    CATALOG,
    RANGE,
)
from repro.core.batch import combine_runs
from repro.core.membership import MembershipMixin
from repro.core.requests import BOTTOM, INSERT, OpRecord
from repro.dht.storage import PARKED, key_in_range
from repro.overlay.ldb import LEFT, MIDDLE, RIGHT
from repro.overlay.routing import initial_route_state, route_step
from repro.sim.process import Actor

__all__ = ["ClusterContext", "Flight", "Node"]


class ClusterContext:
    """State shared by every node of one cluster (one simulation)."""

    __slots__ = (
        "runtime",
        "metrics",
        "records",
        "salt",
        "route_steps",
        "spec",
        "n_priorities",
        "on_update_over",
        "tracer",
    )

    def __init__(
        self,
        runtime,
        salt: str,
        route_steps: int,
        spec,
        n_priorities: int = 4,
        on_update_over: Callable[[int, int], None] | None = None,
        tracer=None,
    ) -> None:
        self.runtime = runtime
        self.metrics = runtime.metrics
        self.records: list[OpRecord] = []
        self.salt = salt
        self.route_steps = route_steps
        # the structure served (repro.core.structures.StructureSpec): the
        # discipline every node asks, and the metric vocabulary
        self.spec = spec
        self.n_priorities = n_priorities  # Skeap class count (heap clusters)
        self.on_update_over = on_update_over
        # optional repro.telemetry.Tracer; None keeps every protocol span
        # stamp down to a single attribute test (the telemetry-off path)
        self.tracer = tracer


class Flight:
    """A batch sent up and not yet served — Algorithm 1's ``v.B``.

    Built whole when the node fires, taken whole when its SERVE (or a
    requeue) arrives, and never changed in between.
    """

    __slots__ = ("plan", "records", "counts", "sent_to", "fired_at")

    def __init__(
        self,
        plan: list[tuple[int, list[int]]],
        records: list[OpRecord],
        counts: tuple[int, int],
        sent_to: int | None,
        fired_at: float | None,
    ) -> None:
        self.plan = plan  # (src, runs) in combination order; src -1: own
        self.records = records  # the own requests, in the order of plan[0]
        self.counts = counts  # own (joins, leaves) counted into the batch
        self.sent_to = sent_to  # who must serve it (ack target); None: anchor
        self.fired_at = fired_at  # telemetry: when it left, traced non-empty


class Node(MembershipMixin, Actor):
    """One virtual node running the protocol for ``ctx.spec``'s structure."""

    __slots__ = (
        "ctx",
        "vid",
        "pid",
        "kind",
        "label",
        "pred_vid",
        "pred_label",
        "succ_vid",
        "succ_label",
        # stage 1 state
        "buffer",
        "child_batches",
        "flight",
        # anchor (stage 2)
        "is_anchor",
        "anchor_state",
        # DHT (stage 4)
        "store",
        "barrier",
        # membership (Section IV): the open UPDATE epoch, then what
        # outlives an epoch (see the repro.core.membership docstring)
        "epoch",
        "update_epoch",
        "finished_epoch",
        "depart_epoch",
        "joining",
        "joining_range_end",
        "carved_ranges",
        "pre_grant_buffer",
        "relay_parent",
        "resp_vid",
        "joiners",
        "relay_children",
        "leaving",
        "replaced",
        "dumped",
        "departed",
        "replacements",
        "replacement_set",
        "pending_joins",
        "pending_leaves",
        "deferred_joins",
        "wait_since",
        "remote_wait_since",
        # event-driven patience (A_NUDGE deadlock probe)
        "force_fire",
        "nudge_seen",
        "nudge_token",
        "nudge_fence",
    )

    #: Rounds a node waits for an expected local child's batch before
    #: *probing* for a wait cycle (it no longer blindly fires without the
    #: stragglers — that desynchronised the pipeline: an abandoned child's
    #: batch misses its wave, arrives as an extra one wave late, and the
    #: skew compounds super-logarithmically under load).  After this many
    #: rounds the waiter sends an ``A_NUDGE`` probe along its missing
    #: child edges; the probe walks the wave-dependency graph and only if
    #: it returns to its origin — a genuine cycle, which can only arise
    #: from a membership splice briefly leaving neighbouring nodes with
    #: disagreeing parent/child views — does the origin fire without the
    #: stragglers to dissolve it.  Normal waves complete in O(log n) ≪ 48
    #: rounds, so steady state never launches a probe; expiry is armed
    #: with ``call_later`` (event-driven), not detected by a sweep.
    WAVE_PATIENCE = 48

    #: Rounds an *idle* node waits for the batch of a successor-child
    #: hosted by another OS process before it fires an empty batch without
    #: it (see :meth:`_awaited_remote_child`).  In steady state the child
    #: reports within its own re-arm pace plus its subtree's climb, a few
    #: rounds; the bound is what keeps the wait from ever being a
    #: dependency: a child that never reports (killed host, a splice that
    #: re-parented it) costs an idle node this long per wave and a node
    #: holding work nothing.  Kept below ``WAVE_PATIENCE`` so a local
    #: parent blocked on the waiter never launches a probe because of it.
    REMOTE_PATIENCE = 32

    def __init__(
        self,
        ctx: ClusterContext,
        vid: int,
        label: float,
        pred_vid: int,
        pred_label: float,
        succ_vid: int,
        succ_label: float,
        is_anchor: bool = False,
        joining: bool = False,
    ) -> None:
        super().__init__(vid, ctx.runtime)
        self.ctx = ctx
        self.vid = vid
        self.pid = vid // 3
        self.kind = vid % 3
        self.label = label
        self.pred_vid = pred_vid
        self.pred_label = pred_label
        self.succ_vid = succ_vid
        self.succ_label = succ_label

        spec = ctx.spec
        self.buffer = spec.buffer(ctx.n_priorities, self._annihilate)
        self.child_batches: dict[int, tuple] = {}
        self.flight = None  # the batch in flight (Flight), if any

        self.is_anchor = is_anchor
        self.anchor_state = (
            spec.anchor_state(ctx.n_priorities) if is_anchor else None
        )

        self.store = spec.store()
        self.barrier = 0  # PUT/GETs of the last wave still out (spec.barrier)

        self.epoch = None  # the open UPDATE epoch (membership.EpochState)
        self.update_epoch = 0  # highest epoch entered
        self.finished_epoch = 0  # highest epoch seen to end
        self.depart_epoch = 0  # epoch the latest DEPART_REQ asked for
        self.joining = joining
        self.joining_range_end = label
        self.carved_ranges: list[tuple[float, float, int]] = []  # (lo, hi, vid)
        self.pre_grant_buffer: list[tuple[int, tuple]] = []
        self.relay_parent = None
        self.resp_vid = None
        self.joiners: list[tuple[float, float, int]] = []  # (rel, label, vid)
        self.relay_children: list[int] = []
        self.leaving = False
        self.replaced = False
        self.dumped = False
        self.departed = False
        self.replacements: list[int] = []
        self.replacement_set: set[int] = set()
        self.pending_joins = 0
        self.pending_leaves = 0
        self.deferred_joins: list[tuple] = []
        self.wait_since = None  # when this node began waiting on children
        self.remote_wait_since = None  # ... idle, on a remote successor-child
        self.force_fire = False  # a NUDGE probe confirmed a wait cycle
        self.nudge_seen: set[tuple[int, int]] = set()  # forwarded probes
        self.nudge_token = 0  # distinguishes this node's probe launches
        self.nudge_fence = 0  # token value at the last fire: older probes
        #                       were launched during a wait that is over

    # -- request injection (cluster facade) ------------------------------------
    def local_op(self, rec: OpRecord) -> None:
        """Buffer a freshly generated operation (Section III-A)."""
        ctx = self.ctx
        ctx.metrics.request_generated()
        if ctx.tracer is not None:
            ctx.tracer.on_submit(rec.req_id, kind=rec.kind, pid=rec.pid)
        self._buffer_op(rec)
        self.wake_me()

    def _buffer_op(self, rec: OpRecord) -> None:
        self.buffer.add(rec)

    def _annihilate(self, push: OpRecord, pop: OpRecord) -> None:
        """The buffer cancelled ``pop`` against the latest unsent push of
        its own process (Section VI): both answer now, in no wave."""
        ctx = self.ctx
        now = ctx.runtime.now
        # local_match before completed: completion is what a TCP host
        # replicates, and a rebuild must know the pair was never valued
        pop.result = push.element
        pop.local_match = True
        pop.completed = True
        push.local_match = True
        push.completed = True
        metrics = ctx.metrics
        metrics.observe(ctx.spec.insert_name, now - push.gen)
        metrics.observe(ctx.spec.remove_name, now - pop.gen)
        metrics.inc("annihilated_pairs")
        if ctx.tracer is not None:
            ctx.tracer.finish(push.req_id, result="annihilated")
            ctx.tracer.finish(pop.req_id, result="annihilated")

    def _holds_own_ops(self) -> bool:
        """Is any request buffered here, for the next wave or a later one?"""
        return bool(self.buffer)

    # -- message dispatch ---------------------------------------------------------
    def handle(self, action: int, payload: tuple) -> None:
        """Run ``action``'s entry of the catalog (:data:`_TAKE`); the
        code is trusted — the TCP host refuses a foreign one."""
        _TAKE[action](self, payload)

    def _on_wake(self, _payload: tuple) -> None:
        self.wake_me()  # remote form of Runtime.wake

    # -- stage 1: aggregation -------------------------------------------------------
    def _sibling_integrated(self, kind: int) -> bool:
        """Is this process's virtual node of ``kind`` on the cycle?

        Consulting the sibling is a *local* read: the three virtual nodes
        are emulated by one physical process.  A sibling can be missing
        from the cycle while joining (not yet integrated) or after having
        departed (LEAVE) — in both cases the paper's same-process tree
        edges temporarily do not exist and the cycle-pred fallback of
        ``p(v) = leftmost neighbour`` applies instead.
        """
        sibling = self.ctx.runtime.actors.get(self.pid * 3 + kind)
        return sibling is not None and not sibling.joining

    def _aggregation_children(self) -> list[int]:
        """Current child set: tree children (Section III-B) + relay joiners.

        These are the children this node *blocks* on, all of them local
        reads.  The own-process child is expected only while it is
        actually on the cycle; a node whose sibling edge is broken
        parents itself at its cycle predecessor instead and its batch is
        consumed there as an *extra* (see :meth:`timeout`).  A
        successor-child hosted by another OS process is never in this
        list: see :meth:`_awaited_remote_child`.
        """
        out: list[int] = []
        if not self.joining:
            kind = self.kind
            if kind != RIGHT:
                own = self.pid * 3 + (MIDDLE if kind == LEFT else RIGHT)
                sibling = self.ctx.runtime.actors.get(own)
                # expect the same-process child only if it is on the cycle,
                # currently considers us its parent, and has no batch stuck
                # in another node's wave (its parent choice may have been
                # the pred fallback while this node was absent) — waiting
                # on such a batch can close a wave-dependency cycle
                if (
                    sibling is not None
                    and not sibling.joining
                    and sibling._parent_vid() == self.vid
                    and (
                        sibling.flight is None
                        or sibling.flight.sent_to == self.vid
                    )
                ):
                    out.append(own)
                sv = self.succ_vid
                # the successor is a child iff it is a left node and not the
                # global minimum (the wrap back to the anchor is not an edge
                # of the tree); as with siblings, don't block on a successor
                # whose batch is lodged in another node's wave — it rejoins
                # as an extra once served (see DESIGN.md on these reads)
                if sv % 3 == LEFT and self.succ_label > self.label:
                    succ_node = self.ctx.runtime.actors.get(sv)
                    if (
                        succ_node is not None
                        and succ_node._parent_vid() == self.vid
                        and (
                            succ_node.flight is None
                            or succ_node.flight.sent_to == self.vid
                        )
                    ):
                        out.append(sv)
        if self.relay_children:
            out.extend(self.relay_children)
        return out

    def _awaited_remote_child(self) -> int | None:
        """The successor-child another OS process hosts, while this node
        has nothing else to send; ``None`` otherwise (always, on the
        simulators).

        A parent cannot read a remote child's state, so it must not block
        on it: a node holding work — a buffered request, a join/leave
        counter, a non-empty batch from another child — fires without
        the remote child, whose batch rides the next wave as an extra.
        But a node with nothing else to send loses nothing by holding its
        empty batch back until the child reports, and gains a wave:
        firing early would leave it in flight when the child's batch
        lands, and that batch would then sit out this node's whole cycle
        — at every cross-host level of the tree again.  The wait is
        bounded by ``REMOTE_PATIENCE`` and never probed (:meth:`timeout`).
        """
        runtime = self.ctx.runtime
        if not runtime.sharded or self.joining:
            return None
        sv = self.succ_vid
        if (
            sv % 3 != LEFT
            or self.succ_label <= self.label
            or sv in runtime.actors
            or self.pending_joins
            or self.pending_leaves
            or self._holds_own_ops()
        ):
            return None
        for vid, (runs, joins, leaves, _is_relay) in self.child_batches.items():
            if vid != sv and (joins or leaves or any(runs)):
                return None
        return sv

    def timeout(self) -> None:
        if self.epoch is not None or self.leaving or self.deferred_joins:
            self._membership_tick()
        if self.epoch is not None or self.barrier:
            return
        if self.flight is not None and not self.is_anchor:
            return
        # an *anchor* in flight stays eligible: ANCHOR_XFER can land on a
        # node whose own batch is already riding the next wave up the
        # tree — a tree that now roots at this very node.  Blocking on
        # the flight would deadlock the whole cycle (everyone in flight,
        # nobody waiting, so not even a NUDGE probe originates); instead
        # the anchor consumes the wave below.  An anchor's wave never
        # occupies the slot (see _fire), so the earlier batch stays where
        # it is until its own SERVE comes back.
        if self.joining and self.relay_parent is None:
            return  # dormant joining left/right node: integrated passively
        children = self._aggregation_children()
        batches = self.child_batches
        if any(child not in batches for child in children):
            if self.force_fire:
                # a NUDGE probe returned to us: this node sits on a
                # genuine wait cycle — fire without the stragglers and
                # let their batches ride a later wave as extras
                self.ctx.metrics.inc("wave_force_fires")
                children = [c for c in children if c in batches]
            else:
                now = self.ctx.runtime.now
                if self.wait_since is None:
                    self.wait_since = now
                    self.runtime.call_later(self.aid, self.WAVE_PATIENCE + 1)
                elif now - self.wait_since > self.WAVE_PATIENCE:
                    # patience expired: probe the missing edges for a wait
                    # cycle instead of abandoning the stragglers outright
                    self.nudge_token += 1
                    self.ctx.metrics.inc("wave_nudge_probes")
                    probe = (self.vid, self.nudge_token)
                    for child in children:
                        if child not in batches:
                            self.send(child, A_NUDGE, probe)
                    self.wait_since = now  # re-probe cadence
                    self.runtime.call_later(self.aid, self.WAVE_PATIENCE + 1)
                return
        self.wait_since = None
        remote = self._awaited_remote_child()
        if remote is not None:
            if remote in batches:
                children.append(remote)
            else:
                # idle: hold the empty batch back for the remote child,
                # for a bounded time and without ever probing — nothing
                # waits on a node in another process (no A_NUDGE crosses
                # this edge, in either direction: see _on_nudge)
                now = self.ctx.runtime.now
                if self.remote_wait_since is None:
                    self.remote_wait_since = now
                    self.ctx.metrics.inc("wave_remote_waits")
                    self.runtime.call_later(self.aid, self.REMOTE_PATIENCE + 1)
                    return
                if now - self.remote_wait_since <= self.REMOTE_PATIENCE:
                    return
                self.ctx.metrics.inc("wave_remote_wait_expired")
        self.remote_wait_since = None
        # batches nobody waited for join this wave as extras: nodes whose
        # same-process tree edge is broken parent themselves here via the
        # pred fallback, and so does a successor-child in another process
        # whenever this node had work to send
        if len(batches) > len(children):
            known = set(children)
            extras = [c for c in batches if c not in known]
            self.ctx.metrics.inc("wave_extras", len(extras))
            children = children + extras
        self._fire(children)

    def _on_nudge(self, payload: tuple) -> None:
        """Walk a patience probe along the wave-dependency graph.

        The probe ``(origin, token)`` follows the edges a stuck waiter is
        actually blocked on: missing child edges while waiting, the
        ``sent_to`` edge while in flight (the batch is lodged in someone
        else's wave).  If it comes back to its origin the wait graph has
        a cycle, and the origin — a member of it — fires without the
        stragglers, dissolving the cycle.  Every stuck node launches its
        own probe, so any cycle is detected by its members regardless of
        who else is waiting on it.  States with their own event-driven
        exits (updating, joining) absorb the probe: they are making
        progress, so there is no cycle through them.  A node stuck on the
        stage-4 *barrier* is different: a parked GET can wait on a PUT
        whose record is still buffered at an arbitrary node of the stuck
        wave — possibly the origin itself — so the probe cannot follow
        that edge and conservatively *confirms* instead (bounces back to
        the origin), reproducing the effect of the old bounded-patience
        abandonment exactly where it was load-bearing.
        """
        origin = payload[0]
        if origin == self.vid:
            # honour the confirmation only if the probe belongs to the
            # wait we are *still* in: a probe launched before our last
            # fire is about a wait that already resolved itself, and
            # letting it through would leak a force-fire into the next
            # wave (abandoning children that are merely pipelining)
            if payload[1] > self.nudge_fence and self.epoch is None:
                self.force_fire = True
                self.wake_me()
            return
        key = (origin, payload[1])
        if key in self.nudge_seen:
            return  # already forwarded this probe during the current wait
        self.nudge_seen.add(key)
        if self.epoch is not None or self.joining:
            return
        if self.barrier:
            self.send(origin, A_NUDGE, payload)
            return
        flight = self.flight
        if flight is not None:
            # our batch already reached sent_to's wave: the only edge we
            # are blocked on is "sent_to's wave must complete".  If
            # sent_to *is* the origin, the origin's dependency on us is
            # already satisfied (our batch sits in its child_batches, or
            # is about to — the A_AGG is on the wire), so bouncing the
            # probe back would confirm a phantom cycle.  The one case
            # where the batch is truly captive at the origin — consumed
            # into a transferred anchor's earlier flight on a rootless wave
            # — needs per-wave sequence tags to dissolve, not a bounce
            # (see ROADMAP.md, "Parked liveness finding").
            if flight.sent_to is not None and flight.sent_to != origin:
                self.send(flight.sent_to, A_NUDGE, payload)
            return
        batches = self.child_batches
        for child in self._aggregation_children():
            if child not in batches:
                self.send(child, A_NUDGE, payload)

    def _wake_stale_parents(self, dest: int | None) -> None:
        """Push a TIMEOUT at the *other* plausible parents of this node.

        ``_aggregation_children`` stops expecting a child whose batch is
        lodged in a different node's wave (``flight.sent_to != self``) —
        but that exclusion is a local read of *this* node's state, which
        the waiting parent cannot observe change.  Whenever
        the batch goes somewhere (here: to ``dest``), wake the remaining
        candidates from :meth:`_parent_vid`'s fallback chain so a parent
        stuck waiting on us re-evaluates immediately instead of at the
        next safety sweep (there may be none: ``safety_tick=0``).
        """
        runtime = self.ctx.runtime
        kind = self.kind
        candidates = [self.pred_vid]
        if kind != LEFT:
            candidates.append(self.pid * 3 + (LEFT if kind == MIDDLE else MIDDLE))
        for vid in candidates:
            if vid is not None and vid != dest and vid != self.vid:
                runtime.wake(vid)

    def _snapshot_own(self) -> tuple[list[int], list[OpRecord]]:
        """Move the local buffer out for this wave (``v.W -> v.B``)."""
        runs, records = self.buffer.take()
        if self.buffer:
            self.wake_me()  # what had to wait rides the wave after this
        return runs, records

    def _fire(self, children: list[int]) -> None:
        """Stage 1: move ``W`` to ``B`` and send it up (Algorithm 1)."""
        runs, records = self._snapshot_own()
        joins = self.pending_joins
        leaves = self.pending_leaves
        counts = (joins, leaves)
        self.pending_joins = 0
        self.pending_leaves = 0

        combined = list(runs)
        plan: list[tuple[int, list[int]]] = [(-1, runs)]
        batches = self.child_batches
        for child in children:
            child_runs, child_joins, child_leaves, _is_relay = batches.pop(child)
            plan.append((child, child_runs))
            combine_runs(combined, child_runs)
            joins += child_joins
            leaves += child_leaves

        fired_at = None
        tracer = self.ctx.tracer
        if tracer is not None:
            if records and tracer.tracing:
                tracer.wave_join(records, self.vid)
            if combined:
                fired_at = self.ctx.runtime.now
        # firing ends the wait this node may have been stuck in: any
        # probe state belongs to that wait and must not leak into the
        # next wave (the fence invalidates probes still walking the graph)
        self.force_fire = False
        self.nudge_seen.clear()
        self.nudge_fence = self.nudge_token

        if self.is_anchor:
            state = self.anchor_state
            epoch = 0
            if joins or leaves:
                state.epoch += 1
                state.members += joins - leaves
                epoch = state.epoch
            # the anchor's wave completes here and now: its batch is
            # served as a local and never occupies the slot
            assigns = tuple(state.assign(combined))
            self._serve(Flight(plan, records, counts, None, fired_at), assigns, epoch)
        else:
            dest = (
                self.relay_parent
                if self.relay_parent is not None
                else self._parent_vid()
            )
            self.flight = Flight(plan, records, counts, dest, fired_at)
            is_relay = self.relay_parent is not None
            self.send(
                dest, A_AGG, (self.vid, tuple(combined), joins, leaves, is_relay)
            )
            self.ctx.metrics.note_batch_len(len(combined))
            if not self.joining:
                self._wake_stale_parents(dest)

    def _parent_vid(self) -> int:
        """Aggregation parent: the leftmost neighbour (Section III-B).

        When the same-process edge is broken (sibling joining in a later
        epoch, or departed first during LEAVE), the leftmost neighbour is
        simply the cycle predecessor; the parent consumes our batch as an
        extra.
        """
        kind = self.kind
        if kind == MIDDLE:
            if self._sibling_integrated(LEFT):
                return self.pid * 3 + LEFT
            return self.pred_vid
        if kind == LEFT:
            return self.pred_vid
        if self._sibling_integrated(MIDDLE):
            return self.pid * 3 + MIDDLE
        return self.pred_vid

    def _on_agg(self, payload: tuple) -> None:
        child_vid, runs, joins, leaves, is_relay = payload
        if is_relay and (
            child_vid not in self.relay_children or self._departing()
        ):
            # a relay batch that lost its responsible node mid-departure
            # (or reached a departing zombie): it never went up the tree,
            # so the sender simply resends after integration
            self.send(child_vid, A_REQUEUE, (0,))
            return
        if self.epoch is not None and not is_relay:
            # a tree batch arriving mid-update missed the flagged wave:
            # bounce it so the sender requeues and joins the epoch (the
            # open epoch is the highest entered: update_epoch names it)
            self.send(child_vid, A_REQUEUE, (self.update_epoch,))
            return
        entry = self.child_batches.get(child_vid)
        if entry is None:
            self.child_batches[child_vid] = (list(runs), joins, leaves, is_relay)
        else:
            existing_runs, existing_joins, existing_leaves, existing_relay = entry
            combine_runs(existing_runs, runs)
            self.child_batches[child_vid] = (
                existing_runs,
                existing_joins + joins,
                existing_leaves + leaves,
                existing_relay or is_relay,
            )
        self.wake_me(arrival=True)

    # -- stage 3: decomposition --------------------------------------------------------
    def _on_serve(self, payload: tuple) -> None:
        flight, self.flight = self.flight, None
        if flight is None:
            raise RuntimeError(f"node {self.vid}: SERVE without a batch in flight")
        assigns, epoch = payload
        self._serve(flight, assigns, epoch)

    def _serve(self, flight: Flight, assigns: tuple, epoch: int) -> None:
        """Split ``assigns`` over ``flight``'s sub-batches, own requests first."""
        decomposer = self.ctx.spec.decomposer(assigns) if assigns else None
        served: list[int] = []
        for src, runs in flight.plan:
            sub = decomposer.take(runs) if decomposer is not None else ()
            if src == -1:
                self._stage4(sub, runs, flight.records)
            else:
                self.send(src, A_SERVE, (sub, epoch))
                served.append(src)
        if flight.fired_at is not None:
            ctx = self.ctx
            ctx.metrics.note_stat("wave_duration", ctx.runtime.now - flight.fired_at)
        if epoch:
            self._on_flagged_serve(epoch, served, flight.sent_to)
        else:
            self.wake_me()

    # -- stage 4: DHT updates ---------------------------------------------------------------
    def _stage4(self, sub: tuple, runs: list[int], records: list[OpRecord]) -> None:
        if not runs:
            return
        ctx = self.ctx
        spec = ctx.spec
        salt = ctx.salt
        now = ctx.runtime.now
        tracer = ctx.tracer
        ticketed = spec.ticketed
        barrier = spec.barrier
        for rec, (value, position) in zip(records, spec.place(sub, runs)):
            rec.value = value
            if tracer is not None:
                tracer.valued(rec.req_id, value)
            if position is None:  # past the structure's extent: ⊥ (Lemma 10)
                rec.result = BOTTOM
                rec.completed = True
                ctx.metrics.observe(spec.empty_name, now - rec.gen)
                if tracer is not None:
                    tracer.finish(rec.req_id, result="empty")
                continue
            if rec.kind == INSERT:
                action = A_RT_PUT
                extra = (rec.element, rec.gen, rec.req_id)
                if ticketed:
                    extra += (position[-1], self.vid)
            else:
                action = A_RT_GET
                extra = (self.vid, rec.req_id, rec.gen)
                if ticketed:
                    extra += (position[-1],)
            if barrier:
                self.barrier += 1
            self._route_start(action, spec.key(*position, salt), extra)

    # -- routing (Lemma 3) ----------------------------------------------------------------------
    def _joining_route(self, action: int, key: float, payload: tuple, extra: tuple) -> None:
        """A routed message at a pending joiner (not yet on the cycle).

        Deliverable only when the key falls inside the granted range;
        anything else — a De Bruijn transit via the sibling middle node,
        or a final walk racing the splice — bounces to the responsible
        node, which is on the cycle and continues the walk.  Messages
        arriving before the grant are buffered and replayed.
        """
        if self.resp_vid is None:
            self.pre_grant_buffer.append((action, payload))
            return
        if CATALOG[action].routed == RANGE and key_in_range(
            key, self.label, self.joining_range_end
        ):
            self._deliver(action, key, extra)
        else:
            self.send(self.resp_vid, action, payload)

    def _route_start(self, action: int, key: float, extra: tuple) -> None:
        bits, steps, ideal = initial_route_state(
            key, self.ctx.route_steps, origin=max(0.0, self.label)
        )
        if self.joining:
            # a pending joiner is not on the cycle: relay via its
            # responsible node, which routes onward
            if self.resp_vid is None:
                self.pre_grant_buffer.append(
                    (action, (key, bits, steps, ideal, extra))
                )
            else:
                self.send(self.resp_vid, action, (key, bits, steps, ideal, extra))
            return
        self._route_hop(action, key, bits, steps, ideal, extra)

    def _route_hop(
        self,
        action: int,
        key: float,
        bits: int,
        steps: int,
        ideal: float,
        extra: tuple,
    ) -> None:
        tracer = self.ctx.tracer
        if tracer is not None and tracer.tracing:
            where = CATALOG[action].trace_req
            if where is not None:
                tracer.hop(extra[where], self.vid)
        if self.replaced and self.dumped:
            # spliced out and data handed over: the responsible node (or
            # the final owner it redistributed to) continues the walk
            self.send(self.resp_vid, action, (key, bits, steps, ideal, extra))
            return
        if steps > 0 and self.kind == MIDDLE:
            # the De Bruijn hop would use a virtual edge to l(v)/r(v) —
            # unusable while that sibling is not (or no longer) on the
            # cycle; walk on to the next live middle node instead.  The
            # detour must apply the same wrap-relax as route_step's
            # middle-seek: if this was the *only* eligible middle on the
            # wrap-free side of the ideal point, forwarding with the
            # state unchanged sends the message on an eternal orbit of
            # the cycle (every other middle stays ineligible forever) —
            # crossing the wrap instead re-seeds the ideal point so the
            # nearest usable middle becomes eligible at a small
            # precision cost
            target_kind = RIGHT if bits & 1 else LEFT
            if not self._sibling_integrated(target_kind):
                if ideal >= 0.5:
                    nxt = self.pred_vid
                    if self.pred_label > self.label:
                        ideal = 1.0 - 2**-53  # crossed the 1.0/0.0 wrap
                else:
                    nxt = self.succ_vid
                    if self.succ_label < self.label:
                        ideal = 0.0
                self.send(nxt, action, (key, bits, steps, ideal, extra))
                return
        nxt, (bits, steps, ideal) = route_step(
            self.vid,
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

    def _deliver(self, action: int, key: float, extra: tuple) -> None:
        """The walk ended here: run ``action``'s handler — unless the
        key's range went to a pending joiner, which takes it instead."""
        if CATALOG[action].routed == RANGE:
            forward = self._joiner_for_key(key)
            if forward is not None:
                self.send(forward, action, (key, 0, 0, 0.0, extra))
                return
        _HANDLER[action](self, key, extra)

    def _joiner_for_key(self, key: float) -> int | None:
        """Forward PUT/GETs whose range was handed to a pending joiner."""
        joiners = self.joiners
        if not joiners:
            return None
        rel = (key - self.label) % 1.0
        best = None
        for joiner_rel, _, joiner_vid in joiners:
            if joiner_rel <= rel:
                best = joiner_vid
            else:
                break
        return best

    # -- DHT handlers ------------------------------------------------------------------------
    def _dht_put(self, key: float, extra: tuple) -> None:
        ctx = self.ctx
        element, gen, req_id = extra[:3]
        if ctx.spec.ticketed:
            served = self.store.put(key, extra[3], element)
        else:
            waiter = self.store.put(key, element)
            served = () if waiter is None else ((waiter, element),)
        ctx.metrics.observe(ctx.spec.insert_name, ctx.runtime.now - gen)
        ctx.records[req_id].completed = True
        if ctx.tracer is not None:
            ctx.tracer.finish(req_id, result="stored")
        if ctx.spec.barrier:
            owner_vid = extra[4]
            self.send(owner_vid, A_PUT_ACK, (owner_vid,))
        for ready in served:
            self._answer_ready(ready)

    def _dht_get(self, key: float, extra: tuple) -> None:
        requester_vid, req_id = extra[:2]
        if self.ctx.spec.ticketed:
            result = self.store.get(key, extra[3], context=extra)
        else:
            result = self.store.get(key, extra)
        if result is not PARKED:
            self.send(requester_vid, A_GET_REPLY, (req_id, result, requester_vid))

    def _on_get_reply(self, payload: tuple) -> None:
        req_id, element, issuer = payload
        ctx = self.ctx
        rec = ctx.records[req_id]
        rec.result = element
        gen = rec.gen
        rec.completed = True
        if gen is not None:
            # a reply forwarded from a departed node can land where the
            # record is only a stub (gen unknown): the origin host books
            # the completion; latency is observed where the gen is known
            ctx.metrics.observe(ctx.spec.remove_name, ctx.runtime.now - gen)
        if ctx.tracer is not None:
            ctx.tracer.finish(req_id, result="served")
        # a reply forwarded from a departed zombie completes the record
        # but must not touch this node's own stage-4 barrier
        if ctx.spec.barrier and issuer == self.vid:
            self.barrier -= 1
            self.wake_me()

    def _on_put_ack(self, payload: tuple) -> None:
        if not self.ctx.spec.barrier:
            raise RuntimeError(f"PUT_ACK on a {self.ctx.spec.name} node")
        if payload[0] == self.vid:
            self.barrier -= 1
            self.wake_me()

    # -- record adoption (LEAVE, Section IV-B) ------------------------------------
    def _adopt_one(self, rec: OpRecord) -> OpRecord:
        """Register an adopted record with the record table, if there is one.

        On the simulators ``ctx.records`` is a plain list and the record
        object in the DEPART_DUMP payload *is* the original, so adoption
        is the identity.  On the TCP runtime the payload crossed a host
        boundary as a wire copy; ``RecordTable.adopt`` swaps it for a
        proxy that forwards value/result/completion back to the origin
        host (which owns the client connection and the canonical record).
        """
        adopt = getattr(self.ctx.records, "adopt", None)
        return adopt(rec) if adopt is not None else rec

    def _adopt_records(self, records: list[OpRecord]) -> None:
        """Take over unflushed requests of a departed replacement.

        The leaving process generated these before announcing its leave;
        they keep their (pid, idx) identity and replay through this
        node's buffering rules, which preserves per-process order (the
        donor's earlier operations were valued in strictly earlier waves).
        """
        for rec in records:
            self._buffer_op(self._adopt_one(rec))
        if records:
            self.wake_me()

    # -- introspection -----------------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self.store.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} vid={self.vid} "
            f"({'LMR'[self.kind]}) label={self.label:.6f}"
            f"{' anchor' if self.is_anchor else ''}>"
        )


def _routed_entry(action: int) -> Callable[[Node, tuple], None]:
    """What ``Node.handle`` runs for a routed ``action``: a pending
    joiner relays the message, anyone else takes the walk's next hop."""

    def take(node: Node, payload: tuple) -> None:
        key, bits, steps, ideal, extra = payload
        if node.joining:
            node._joining_route(action, key, payload, extra)
        else:
            node._route_hop(action, key, bits, steps, ideal, extra)

    return take


#: per code, the ``Node`` method its catalog row names
_HANDLER = tuple(getattr(Node, spec.handler) for spec in CATALOG)
#: per code, what ``Node.handle`` calls with ``(node, payload)``
_TAKE = tuple(
    _routed_entry(spec.code) if spec.routed else _HANDLER[spec.code]
    for spec in CATALOG
)
