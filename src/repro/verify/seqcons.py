"""Checker for Definition 1 (sequential consistency).

Sequential consistency asks for the *existence* of a total order ``<`` on
all requests satisfying the four properties of Definition 1.  The
protocol itself constructs a witness: the value ranks of Section V
(stored on each :class:`~repro.core.requests.OpRecord` during stage 3).
The checker therefore:

1. builds the candidate order from the recorded values,
2. verifies property 4 (per-process program order) directly, and
3. *replays* the order against the structure's sequential model
   (:mod:`repro.verify.models`, the same one the crash rebuild replays),
   comparing every removal's result — which is equivalent to properties
   1-3 combined with the uniqueness of elements (an element is returned
   iff it was inserted earlier and not yet removed, in FIFO/LIFO order —
   for the heap: lowest priority class first, FIFO within a class).

Properties 1-3 are additionally checked one by one on the matching so a
violation report names the exact clause that failed.

Stack histories contain *locally annihilated* pairs (Section VI) that
never visit the anchor and hence carry no value.  Such a pair is a no-op
on the stack state, so it may be placed anywhere between its process's
neighbouring valued operations; the checker places it right after the
last preceding valued operation of the same process, ordered by a local
minor counter.  Keys are ``(major, pid, minor)`` tuples: valued
operations get ``(value, pid, 0)``; the k-th trailing annihilated
operation after a valued operation with value ``V`` gets ``(V, pid, k)``.
Values are globally unique integers and the pid component separates the
(properly nested) pair chains of different processes that share a major
— in particular the shared ``major = 0`` before any valued operation —
so replay sees each annihilated chain contiguously: a no-op, as
required.
"""

from __future__ import annotations

from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.verify.models import HeapModel, QueueModel, StackModel
from repro.verify.violations import ConsistencyViolation, Violation

__all__ = [
    "ConsistencyViolation",
    "check_heap_history",
    "check_history",
    "check_queue_history",
    "check_stack_history",
    "order_key",
]


def _fail(clause: str, message: str, *records: OpRecord) -> None:
    """Raise a :class:`ConsistencyViolation` carrying the structured
    :class:`~repro.verify.violations.Violation` (kind/clause/req_ids)."""
    raise ConsistencyViolation(
        message,
        Violation(
            kind="consistency",
            clause=clause,
            message=message,
            req_ids=tuple(rec.req_id for rec in records),
        ),
    )


def order_key(records: list[OpRecord]) -> dict[int, tuple[int, int, int]]:
    """Assign every record its ``(major, pid, minor)`` rank in the witness order."""
    keys: dict[int, tuple[int, int, int]] = {}
    by_pid: dict[int, list[OpRecord]] = {}
    for rec in records:
        by_pid.setdefault(rec.pid, []).append(rec)
    for pid, ops in by_pid.items():
        ops.sort(key=lambda r: r.idx)
        major = 0  # value of the last preceding valued op (0 = before all)
        minor = 0
        for rec in ops:
            if rec.local_match:
                minor += 1
                keys[rec.req_id] = (major, pid, minor)
            else:
                if rec.value is None:
                    _fail(
                        "no-value",
                        f"{rec!r}: no value assigned (request incomplete?)",
                        rec,
                    )
                major = rec.value
                minor = 0
                keys[rec.req_id] = (major, pid, 0)
    return keys


def _common_checks(records: list[OpRecord]) -> dict[int, tuple[int, int]]:
    for rec in records:
        if not rec.completed:
            _fail("incomplete", f"{rec!r}: never completed", rec)
    # per-process indices must be contiguous from 0
    by_pid: dict[int, set[int]] = {}
    for rec in records:
        by_pid.setdefault(rec.pid, set()).add(rec.idx)
    for pid, idxs in by_pid.items():
        if idxs != set(range(len(idxs))):
            _fail("index-gap", f"process {pid}: operation indices have gaps")
    keys = order_key(records)
    # global uniqueness of keys
    if len(set(keys.values())) != len(keys):
        _fail("duplicate-keys", "order keys are not unique")
    # property 4: program order per process
    last: dict[int, tuple[tuple[int, int], int]] = {}
    for rec in sorted(records, key=lambda r: (r.pid, r.idx)):
        key = keys[rec.req_id]
        prev = last.get(rec.pid)
        if prev is not None and key <= prev[0]:
            _fail(
                "property 4",
                f"property 4 violated at process {rec.pid}: "
                f"op #{prev[1]} has key {prev[0]} but op #{rec.idx} has {key}",
                rec,
            )
        last[rec.pid] = (key, rec.idx)
    return keys


def _check_matching(records: list[OpRecord], keys) -> None:
    """Properties 1-3 of Definition 1, checked clause by clause."""
    inserts = {r.req_id: r for r in records if r.kind == INSERT}
    matched: list[tuple[OpRecord, OpRecord]] = []  # (insert, remove)
    for rec in records:
        if rec.kind == REMOVE and rec.result is not BOTTOM:
            enq_req_id, _item = rec.result
            enq = inserts.get(enq_req_id)
            if enq is None:
                _fail(
                    "unknown-element",
                    f"{rec!r} returned an element that was never inserted",
                    rec,
                )
            matched.append((enq, rec))
    # an element is removed at most once
    seen: set[int] = set()
    for enq, rem in matched:
        if enq.req_id in seen:
            _fail("double-return", f"{enq!r} was returned by two removals", enq)
        seen.add(enq.req_id)
    # property 1: insert before its removal
    for enq, rem in matched:
        if not keys[enq.req_id] < keys[rem.req_id]:
            _fail(
                "property 1",
                f"property 1 violated: {rem!r} precedes its insert {enq!r}",
                enq,
                rem,
            )


def check_history(records: list[OpRecord], model: type) -> None:
    """Verify a history against Definition 1 for the sequential
    structure ``model`` (a :mod:`repro.verify.models` class); raises
    :class:`ConsistencyViolation` on the first violated clause."""
    keys = _common_checks(records)
    _check_matching(records, keys)
    for rec in records:
        if rec.kind == INSERT:
            problem = model.admit(rec)
            if problem is not None:
                _fail("invalid-priority", problem, rec)
    _replay(records, keys, model())


def _replay(records: list[OpRecord], keys, model) -> None:
    """Properties 2 and 3 (and 1 again): replay the witness order against
    the sequential model; every removal must return what it serves."""
    for rec in sorted(records, key=lambda r: keys[r.req_id]):
        if rec.kind == INSERT:
            model.push(rec)
            continue
        expected = model.peek()
        if expected is None:
            if rec.result is not BOTTOM:
                _fail(
                    "property 2",
                    f"property 2 violated: {rec!r} returned "
                    f"{rec.result!r} from an empty {model.noun}",
                    rec,
                )
            continue
        if rec.result is BOTTOM:
            _fail(
                "property 2",
                f"property 2 violated: {rec!r} returned BOTTOM but "
                f"{model.holding(expected)}",
                rec,
            )
        if rec.result != expected:
            _fail("property 3", model.misorder(rec, expected), rec)
        model.consume()


def check_queue_history(records: list[OpRecord]) -> None:
    """Verify a queue history against Definition 1; raises on violation."""
    check_history(records, QueueModel)


def check_stack_history(records: list[OpRecord]) -> None:
    """Verify a stack history against (the LIFO reading of) Definition 1."""
    check_history(records, StackModel)


def check_heap_history(records: list[OpRecord]) -> None:
    """Verify a heap history against (the priority reading of) Definition 1:
    ⊥ exactly on empty, minimum priority first, FIFO within a class."""
    check_history(records, HeapModel)
