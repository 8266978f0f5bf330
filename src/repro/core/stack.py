"""Skack: the distributed stack variant of Skueue (Section VI).

Three changes relative to the queue:

* **Tickets** — the anchor's ``last`` counter shrinks on pops, so
  positions are reused; every request is assigned a ``(position,
  ticket)`` pair with the monotone ``ticket`` counter disambiguating
  generations of the same position.  A POP assigned ``(p, t)`` removes
  the element with the largest ticket ``<= t`` stored at ``p``.
* **Local annihilation** — a freshly generated POP cancels the most
  recent unsent PUSH at the same node and both answer immediately; the
  surviving buffer is always "pops, then pushes", so every batch is the
  constant-size pair ``[pops, pushes]`` (Theorem 20).
* **Stage-4 barrier** — a node re-enters stage 1 only after every PUT it
  issued was acknowledged and every GET answered.  This makes wave k+1's
  anchor processing transitively wait for wave k's DHT operations, which
  is exactly what rules out the ticket race of Section VI under
  asynchronous, non-FIFO delivery.

Everything else — aggregation tree, LDB routing, JOIN/LEAVE — is
inherited unchanged from :class:`~repro.core.protocol.QueueNode`.
"""

from __future__ import annotations

from repro.core.actions import A_GET_REPLY, A_PUT_ACK, A_RT_GET, A_RT_PUT
from repro.core.anchor import StackAnchorState
from repro.core.decompose import StackDecomposer
from repro.core.protocol import QueueNode
from repro.core.requests import BOTTOM, INSERT, OpRecord
from repro.dht.storage import PARKED, StackStore
from repro.util.hashing import position_key

__all__ = ["StackNode"]


class StackNode(QueueNode):
    """One virtual node running the distributed stack protocol."""

    __slots__ = ("own_pop_records", "own_push_records", "overflow_records")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.own_pop_records: list[OpRecord] = []
        self.own_push_records: list[OpRecord] = []
        # a batch must be "pops, then pushes" in local order (Section VI);
        # a pop that can neither annihilate (only same-process pairs are
        # placeable in the witness order) nor precede the buffered pushes
        # overflows to the *next* wave, as does everything after it
        self.overflow_records: list[OpRecord] = []

    # -- discipline hooks --------------------------------------------------------
    def _new_anchor_state(self):
        return StackAnchorState()

    def _new_store(self):
        return StackStore()

    def _make_decomposer(self, assignments):
        return StackDecomposer(assignments)

    # -- stage 1: buffering with local annihilation (Section VI) ----------------
    def _buffer_op(self, rec: OpRecord) -> None:
        if self.overflow_records:
            # order within this node is committed: once one op waits for
            # the next wave, everything after it waits too
            self.overflow_records.append(rec)
            return
        if rec.kind == INSERT:
            self.own_push_records.append(rec)
            return
        pushes = self.own_push_records
        if pushes and pushes[-1].pid == rec.pid:
            push = pushes.pop()  # most recent unsent push: LIFO match
            now = self.ctx.runtime.now
            rec.result = push.element
            rec.completed = True
            rec.local_match = True
            push.completed = True
            push.local_match = True
            metrics = self.ctx.metrics
            metrics.observe(self.ctx.insert_name, now - push.gen)
            metrics.observe(self.ctx.remove_name, now - rec.gen)
            metrics.inc("annihilated_pairs")
        elif pushes:
            # adopted pushes of another process sit in the buffer: this
            # pop must be ordered after them, i.e. in the next wave
            self.overflow_records.append(rec)
        else:
            self.own_pop_records.append(rec)

    def _holds_own_ops(self) -> bool:
        return bool(
            self.own_pop_records or self.own_push_records or self.overflow_records
        )

    def _snapshot_own(self) -> tuple[list[int], list[OpRecord]]:
        pops = self.own_pop_records
        pushes = self.own_push_records
        self.own_pop_records = []
        self.own_push_records = []
        if self.overflow_records:
            overflow, self.overflow_records = self.overflow_records, []
            for rec in overflow:
                self._buffer_op(rec)
            if self.own_pop_records or self.own_push_records:
                self.wake_me()
        if not pops and not pushes:
            return [], []
        return [len(pops), len(pushes)], pops + pushes

    # -- stage 4: ticketed DHT operations + barrier --------------------------------
    def _stage4(self, sub: tuple, runs: list[int]) -> None:
        records = self.inflight_records
        self.inflight_records = []
        if not runs:
            return
        ctx = self.ctx
        salt = ctx.salt
        now = ctx.runtime.now
        pops = runs[0]
        pushes = runs[1] if len(runs) > 1 else 0
        index = 0

        pop_lo, pop_hi, pop_value, ticket_hi = sub[0]
        avail = pop_hi - pop_lo + 1
        for j in range(pops):
            rec = records[index]
            index += 1
            rec.value = pop_value + j
            if j < avail:
                # pops take the maximum position first (Section VI)
                key = position_key(pop_hi - j, salt)
                self.barrier += 1
                self._route_start(
                    A_RT_GET, key, (self.vid, rec.req_id, rec.gen, ticket_hi - j)
                )
            else:
                rec.result = BOTTOM
                rec.completed = True
                ctx.metrics.observe(ctx.empty_name, now - rec.gen)

        push_lo, _push_hi, push_value, ticket_lo = sub[1]
        for j in range(pushes):
            rec = records[index]
            index += 1
            rec.value = push_value + j
            key = position_key(push_lo + j, salt)
            self.barrier += 1
            self._route_start(
                A_RT_PUT,
                key,
                (rec.element, rec.gen, rec.req_id, ticket_lo + j, self.vid),
            )

    # -- DHT handlers (stack flavour) ------------------------------------------------
    def _dht_put(self, key: float, extra: tuple) -> None:
        element, gen, req_id, ticket, owner_vid = extra
        served = self.store.put(key, ticket, element)
        ctx = self.ctx
        ctx.metrics.observe(ctx.insert_name, ctx.runtime.now - gen)
        ctx.records[req_id].completed = True
        self.send(owner_vid, A_PUT_ACK, (owner_vid,))
        for context, served_element in served:
            requester_vid, waiting_req_id, _gen, _ticket = context
            self.send(
                requester_vid,
                A_GET_REPLY,
                (waiting_req_id, served_element, requester_vid),
            )

    def _dht_get(self, key: float, extra: tuple) -> None:
        requester_vid, req_id, _gen, max_ticket = extra
        result = self.store.get(key, max_ticket, context=extra)
        if result is not PARKED:
            self.send(requester_vid, A_GET_REPLY, (req_id, result, requester_vid))

    def _on_get_reply(self, payload: tuple) -> None:
        super()._on_get_reply(payload)
        # a reply forwarded from a departed zombie completes the record
        # but must not touch this node's own stage-4 barrier
        if payload[2] == self.vid:
            self.barrier -= 1
            self.wake_me()

    def _on_put_ack(self, payload: tuple) -> None:
        if payload[0] == self.vid:
            self.barrier -= 1
            self.wake_me()

    # -- membership glue ----------------------------------------------------------------
    def _answer_ready(self, ready: tuple) -> None:
        context, element = ready
        requester_vid, req_id, _gen, _ticket = context
        self.send(requester_vid, A_GET_REPLY, (req_id, element, requester_vid))

    def _adopt_records(self, records: list[OpRecord]) -> None:
        # replays through the buffering rules: pairs that cannot be formed
        # (cross-process) or ordered (pop after foreign pushes) fall into
        # the overflow and ride a later wave
        for rec in records:
            self._buffer_op(self._adopt_one(rec))
        if records:
            self.wake_me()

    def _requeue_inflight(self) -> None:
        records = self.inflight_records
        self.inflight_records = []
        self.plan = None
        self.inflight = False
        joins, leaves = self.inflight_counts
        self.inflight_counts = (0, 0)
        self.pending_joins += joins
        self.pending_leaves += leaves
        if records:
            # the requeued batch precedes everything buffered since: put
            # it first and replay the rest through the buffering rules
            backlog = (
                self.own_pop_records + self.own_push_records + self.overflow_records
            )
            self.own_pop_records = []
            self.own_push_records = []
            self.overflow_records = []
            for rec in records + backlog:
                self._buffer_op(rec)
        self.wake_me()
