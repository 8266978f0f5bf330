"""Skeap: the distributed constant-priority queue variant of Skueue.

The authors' follow-up paper (*Skeap & Seap: Scalable Distributed
Priority Queues*, PAPERS.md) builds a heap with a constant number of
priority classes on exactly the Skueue machinery: aggregation waves,
anchor interval assignment, DHT storage.  Four changes relative to the
queue:

* **Batch layout** — a heap batch is the fixed-size vector ``[removes,
  ins_0, ..., ins_{P-1}]``: one removal run followed by one insert run
  per priority class.  Element-wise combination (Definition 5) carries
  over because every node agrees on the layout; like the stack's
  ``[pops, pushes]`` pair, the size is constant per wave.
* **Buffer discipline** — the layout fixes the witness-order rank of
  every operation in a wave (removes first, then inserts by ascending
  class), so a node may only add an operation to the current buffer if
  no *earlier-submitted* operation of the same process sits in a later
  run slot; anything else overflows to the next wave (and commits
  everything after it to overflow too, mirroring the stack).  This is
  what keeps property 4 of Definition 1 — per-process program order —
  intact under the per-class regrouping.
* **Anchor assignment** — the anchor keeps one ``first[p]``/``last[p]``
  pair per class (:class:`~repro.core.anchor.HeapAnchorState`).  Each
  DELETE-MIN is assigned a position from the lowest non-empty class at
  its rank in the wave; a removal run therefore decomposes into
  per-priority segments, which stage 3 splits among sub-batches in
  combination order (:class:`~repro.core.decompose.HeapDecomposer`).
* **DHT keys** — elements live under hashed ``(priority, position)``
  pairs (:func:`~repro.util.hashing.heap_position_key`).  Per-class
  positions are single-use (both counters only grow), so the queue's
  PUT/GET handlers, parked-GET discipline and LEAVE handover apply
  verbatim — no tickets and no stage-4 barrier, unlike the stack.

Everything else — aggregation tree, LDB routing, JOIN/LEAVE — is
inherited unchanged from :class:`~repro.core.protocol.QueueNode`.
"""

from __future__ import annotations

from repro.core.actions import A_RT_GET, A_RT_PUT
from repro.core.anchor import HeapAnchorState
from repro.core.decompose import HeapDecomposer
from repro.core.protocol import QueueNode
from repro.core.requests import BOTTOM, REMOVE, OpRecord
from repro.dht.storage import HeapStore
from repro.util.hashing import heap_position_key

__all__ = ["HeapNode"]


class HeapNode(QueueNode):
    """One virtual node running the distributed priority-queue protocol."""

    __slots__ = (
        "own_remove_records",
        "own_insert_records",
        "overflow_records",
        "_pid_max_slot",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.own_remove_records: list[OpRecord] = []
        self.own_insert_records: list[list[OpRecord]] = [
            [] for _ in range(self.ctx.n_priorities)
        ]
        # run-slot order within a wave is committed: once one op waits
        # for the next wave, everything submitted after it waits too
        self.overflow_records: list[OpRecord] = []
        # highest run slot currently buffered per process (program order)
        self._pid_max_slot: dict[int, int] = {}

    # -- discipline hooks --------------------------------------------------------
    def _new_anchor_state(self):
        return HeapAnchorState(self.ctx.n_priorities)

    def _new_store(self):
        return HeapStore()

    def _make_decomposer(self, assignments):
        return HeapDecomposer(assignments)

    # -- stage 1: buffering under the fixed run layout ---------------------------
    @staticmethod
    def _slot(rec: OpRecord) -> int:
        """Run slot of an operation: removes first, then classes upward."""
        return 0 if rec.kind == REMOVE else 1 + rec.priority

    def _buffer_op(self, rec: OpRecord) -> None:
        if self.overflow_records:
            self.overflow_records.append(rec)
            return
        slot = self._slot(rec)
        if self._pid_max_slot.get(rec.pid, 0) > slot:
            # an earlier op of this process already sits in a later run:
            # placing this one now would rank it before that op, breaking
            # program order — it (and everything after) rides the next wave
            self.overflow_records.append(rec)
            return
        self._pid_max_slot[rec.pid] = slot
        if slot == 0:
            self.own_remove_records.append(rec)
        else:
            self.own_insert_records[slot - 1].append(rec)

    def _holds_own_ops(self) -> bool:
        return bool(
            self.own_remove_records
            or self.overflow_records
            or any(self.own_insert_records)
        )

    def _snapshot_own(self) -> tuple[list[int], list[OpRecord]]:
        removes = self.own_remove_records
        inserts = self.own_insert_records
        self.own_remove_records = []
        self.own_insert_records = [[] for _ in inserts]
        self._pid_max_slot = {}
        if self.overflow_records:
            overflow, self.overflow_records = self.overflow_records, []
            for rec in overflow:
                self._buffer_op(rec)
            if self.own_remove_records or any(self.own_insert_records):
                self.wake_me()
        if not removes and not any(inserts):
            return [], []
        runs = [len(removes)] + [len(chunk) for chunk in inserts]
        records = removes
        for chunk in inserts:
            records.extend(chunk)
        return runs, records

    # -- stage 4: per-priority DHT operations ------------------------------------
    def _stage4(self, sub: tuple, runs: list[int]) -> None:
        records = self.inflight_records
        self.inflight_records = []
        if not runs:
            return
        ctx = self.ctx
        salt = ctx.salt
        now = ctx.runtime.now
        index = 0

        removes = runs[0]
        value_start, segments = sub[0]
        positions = [
            (priority, position)
            for priority, lo, hi in segments
            for position in range(lo, hi + 1)
        ]
        for j in range(removes):
            rec = records[index]
            index += 1
            rec.value = value_start + j
            if j < len(positions):
                priority, position = positions[j]
                key = heap_position_key(priority, position, salt)
                self._route_start(
                    A_RT_GET, key, (self.vid, rec.req_id, rec.gen)
                )
            else:  # every stored class is drained: ⊥ (Lemma 10, classwise)
                rec.result = BOTTOM
                rec.completed = True
                ctx.metrics.observe(ctx.empty_name, now - rec.gen)

        for priority, assign in enumerate(sub[1:]):
            count = runs[priority + 1] if len(runs) > priority + 1 else 0
            lo, _hi, value = assign
            for j in range(count):
                rec = records[index]
                index += 1
                rec.value = value + j
                key = heap_position_key(priority, lo + j, salt)
                self._route_start(
                    A_RT_PUT, key, (rec.element, rec.gen, rec.req_id)
                )

    # -- membership glue ----------------------------------------------------------
    def _adopt_records(self, records: list[OpRecord]) -> None:
        # replays through the buffering rules: an op that cannot be placed
        # after the already-buffered ops of its process falls into the
        # overflow and rides a later wave
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
            backlog = list(self.own_remove_records)
            for chunk in self.own_insert_records:
                backlog.extend(chunk)
            backlog.extend(self.overflow_records)
            self.own_remove_records = []
            self.own_insert_records = [[] for _ in self.own_insert_records]
            self.overflow_records = []
            self._pid_max_slot = {}
            for rec in records + backlog:
                self._buffer_op(rec)
        self.wake_me()
