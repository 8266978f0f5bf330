"""Structure disciplines: what queue, stack and heap supply to the one node.

The aggregation tree, the anchor hand-off, the DHT routing and JOIN/LEAVE
are the same for every structure (:mod:`repro.core.protocol`).  A
structure differs in two places only, both local to the node that owns a
request, and this module holds both for all three:

* the **wave buffer** (the paper's ``v.W``) — which buffered requests may
  ride the next wave and in what run layout;
* the **stage-4 placement** — which position each request of a served
  batch takes, in the run order the buffer laid out.

Wave buffers
------------
``add(rec)`` buffers one request, ``take()`` moves one wave's worth out as
``(runs, records)`` with ``sum(runs) == len(records)`` and the records in
run order, ``drain()`` empties the buffer for a hand-over, ``requeue``
puts a batch that never reached the anchor back in front.  Every one of
them keeps the requests of one process in submission order — property 4
of Definition 1 is decided here, before a request ever travels.

* Queue (Section III-A): runs alternate INSERT/REMOVE in submission
  order, so every request fits the current wave (:class:`QueueBuffer`).
* Stack (Section VI): a fresh POP cancels the most recent unsent PUSH of
  its own process and both answer at once; what survives is "pops, then
  pushes", the constant-size pair ``[pops, pushes]`` of Theorem 20
  (:class:`StackBuffer`).
* Heap (Skeap, PAPERS.md 1805.03472): the fixed vector ``[removes,
  ins_0, .., ins_{P-1}]``, one insert run per priority class
  (:class:`HeapBuffer`).

The two fixed layouts rank a wave's requests by run slot, not by
submission, so a request that would land in an earlier slot than an
earlier request it must follow waits for the next wave — and then so
does everything submitted after it (:class:`SlottedBuffer`).

Placements
----------
``place_*(sub, runs)`` yields one ``(value, position | None)`` per
request in run order, from the share ``sub`` the decomposer cut for this
node: ``value`` is the request's rank in the witness order (Section V),
``position`` the argument tuple of the structure's key function — also
the prefix of a rebuilt element in ``RebuildPlan.elements`` — and
``None`` marks a removal past the structure's extent, which answers ⊥
(Lemma 10).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.batch import Batch
from repro.core.requests import INSERT, REMOVE, OpRecord
from repro.util.hashing import position_key

__all__ = [
    "HeapBuffer",
    "QueueBuffer",
    "SlottedBuffer",
    "StackBuffer",
    "WaveBuffer",
    "place_heap",
    "place_queue",
    "place_stack",
    "stack_position_key",
]


class WaveBuffer:
    """The contract of a node's request buffer (``v.W``)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        """Is any request buffered here, for this wave or a later one?"""
        raise NotImplementedError

    def add(self, rec: OpRecord) -> None:
        raise NotImplementedError

    def take(self) -> tuple[list[int], list[OpRecord]]:
        """Move one wave's worth out (the ``v.B <- v.W`` step)."""
        raise NotImplementedError

    def clear(self) -> list[OpRecord]:
        """Empty the buffer as it sits: the next wave's records in run
        order, then whatever waits behind them."""
        raise NotImplementedError

    def drain(self) -> list[OpRecord]:
        """Empty the buffer for a hand-over: every record, in the order
        successive waves would have carried them."""
        records: list[OpRecord] = []
        while self:
            records.extend(self.take()[1])
        return records

    def requeue(self, inflight: list[OpRecord]) -> None:
        """Put ``inflight`` (sent, but never valued) before everything
        buffered since and run the lot through :meth:`add` again."""
        for rec in inflight + self.clear():
            self.add(rec)


class QueueBuffer(WaveBuffer):
    """Alternating runs in submission order: nothing ever has to wait."""

    __slots__ = ("batch", "records")

    def __init__(self) -> None:
        self.batch = Batch()
        self.records: list[OpRecord] = []

    def __bool__(self) -> bool:
        return bool(self.records)

    def add(self, rec: OpRecord) -> None:
        self.batch.add(rec.kind)
        self.records.append(rec)

    def take(self) -> tuple[list[int], list[OpRecord]]:
        runs, _, _ = self.batch.take()
        return runs, self.clear()

    def clear(self) -> list[OpRecord]:
        self.batch.runs = []
        records, self.records = self.records, []
        return records


class SlottedBuffer(WaveBuffer):
    """A fixed run layout: slot ``k`` of every batch is one kind of op.

    ``_fits`` places a request in its slot or refuses; a refused request
    waits in ``overflow``.  Order within this node is committed: once one
    op waits for the next wave, everything after it waits too.
    """

    __slots__ = ("slots", "overflow")

    def __init__(self, n_slots: int) -> None:
        self.slots: list[list[OpRecord]] = [[] for _ in range(n_slots)]
        self.overflow: list[OpRecord] = []

    def __bool__(self) -> bool:
        return bool(self.overflow) or any(self.slots)

    def _fits(self, rec: OpRecord) -> bool:
        raise NotImplementedError

    def _reset(self) -> None:
        self.slots = [[] for _ in self.slots]
        self.overflow = []

    def add(self, rec: OpRecord) -> None:
        if self.overflow or not self._fits(rec):
            self.overflow.append(rec)

    def take(self) -> tuple[list[int], list[OpRecord]]:
        """One wave's worth; what waited is re-admitted for the next."""
        slots, overflow = self.slots, self.overflow
        self._reset()
        for rec in overflow:
            self.add(rec)
        if not any(slots):
            return [], []
        return [len(slot) for slot in slots], [r for slot in slots for r in slot]

    def clear(self) -> list[OpRecord]:
        records = [r for slot in self.slots for r in slot] + self.overflow
        self._reset()
        return records


class StackBuffer(SlottedBuffer):
    """``[pops, pushes]`` with local annihilation.

    ``annihilate(push, pop)`` is told each cancelled pair.  Only pairs of
    one process cancel (only those are placeable in the witness order);
    a pop behind another process's adopted pushes can neither cancel nor
    precede them, so it waits for the next wave.
    """

    __slots__ = ("annihilate",)

    def __init__(self, annihilate: Callable[[OpRecord, OpRecord], None]) -> None:
        super().__init__(2)
        self.annihilate = annihilate

    def _fits(self, rec: OpRecord) -> bool:
        pops, pushes = self.slots
        if rec.kind == INSERT:
            pushes.append(rec)
        elif not pushes:
            pops.append(rec)
        elif pushes[-1].pid != rec.pid:
            return False
        else:
            self.annihilate(pushes.pop(), rec)  # most recent unsent push
        return True


class HeapBuffer(SlottedBuffer):
    """``[removes, ins_0, .., ins_{P-1}]`` under the per-process slot rule.

    The layout ranks removes first, then inserts by ascending class; a
    request whose slot lies before the highest slot its process already
    occupies would be ranked ahead of an earlier request of that process,
    so it waits.
    """

    __slots__ = ("max_slot",)

    def __init__(self, n_priorities: int) -> None:
        super().__init__(1 + n_priorities)
        self.max_slot: dict[int, int] = {}  # pid -> highest occupied slot

    def _fits(self, rec: OpRecord) -> bool:
        slot = 0 if rec.kind == REMOVE else 1 + rec.priority
        if self.max_slot.get(rec.pid, 0) > slot:
            return False
        self.max_slot[rec.pid] = slot
        self.slots[slot].append(rec)
        return True

    def _reset(self) -> None:
        super()._reset()
        self.max_slot = {}


# -- stage-4 placements --------------------------------------------------------


def place_queue(sub: tuple, runs: list[int]) -> Iterator[tuple]:
    """Positions ``(position,)``: inserts exact, removals clamped at ``hi``."""
    for (lo, hi, value), op in zip(sub, runs):
        for j in range(op):
            yield value + j, ((lo + j,) if lo + j <= hi else None)


def place_stack(sub: tuple, runs: list[int]) -> Iterator[tuple]:
    """Positions ``(position, ticket)``: pops take the maximum position
    first with tickets decreasing downwards, pushes extend upwards."""
    lo, hi, value, ticket = sub[0]
    for j in range(runs[0]):
        yield value + j, ((hi - j, ticket - j) if hi - j >= lo else None)
    lo, _hi, value, ticket = sub[1]
    for j in range(runs[1] if len(runs) > 1 else 0):
        yield value + j, (lo + j, ticket + j)


def place_heap(sub: tuple, runs: list[int]) -> Iterator[tuple]:
    """Positions ``(priority, position)``: removals walk the anchor's
    per-class segments lowest class first, inserts extend their class."""
    value, segments = sub[0]
    stored = [
        (priority, position)
        for priority, lo, hi in segments
        for position in range(lo, hi + 1)
    ]
    for j in range(runs[0]):
        yield value + j, (stored[j] if j < len(stored) else None)
    for priority, ((lo, _hi, value), op) in enumerate(zip(sub[1:], runs[1:])):
        for j in range(op):
            yield value + j, (priority, lo + j)


def stack_position_key(position: int, ticket: int, salt: str = "") -> float:
    """DHT key of the stack slot ``(position, ticket)``: positions are
    reused as the stack shrinks, so the key hashes the position alone and
    the store tells generations apart by ticket (Section VI)."""
    return position_key(position, salt)
