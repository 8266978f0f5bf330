"""Deterministic post-crash rebuild planning.

A crash erases three kinds of state at once: the dead host's OpRecords
(mitigated by replication), its shard of the DHT store, and — if it held
the anchor — the position/value counters that define the witness order.
Forwarding alone cannot heal that, so recovery rebuilds *everything*
from the one thing that survives: the merged record set.

The key observation is the protocol's own correctness theorem: the
execution witnessed by the checker is exactly the value-ordered replay
of all operations.  So given every record fact the cluster still holds
(own records + custody archives + replicas), replaying the *valued*
operations in value order against the structure's sequential model (the
one the checker replays, :mod:`repro.verify.models`) deterministically
reproduces

* the result of every valued-but-incomplete operation (→ completed now),
* the live element set and its structure order (→ store preload), and
* the occupied position range and value counter (→ anchor restoration).

Operations with no value anywhere were never ordered by the anchor, so
dropping their partial progress is invisible — they are *re-run* from
scratch after the rebuild.

**Repairs.**  Facts can die in flight with the host: a remove that
consumed an element but whose value replica never landed, an insert
consumed by a *completed* (hence acknowledged) remove whose own value was
lost, or inserts the anchor valued in a SERVE that died on the link to
the dead host — the survivors' waves go on without it until the
eviction, so their removes take the positions after those inserts'.
The replay detects these as mismatches between a completed remove's
recorded result and what the model serves, and repairs them one at a
time in a fixpoint loop: synthesize the missing event (a lost remove
consuming the stale front, the missing insert of a consumed element, or
a lost insert feeding the valued-but-incomplete remove the replay had
give the element a completed remove holds) by assigning the unvalued
record a fresh *float* value squeezed in where that step belonged.  The
checker orders records by ``(value, pid, ...)`` tuples, so float values
slot into the int sequence exactly there; a synthesized value keeps its
process's program order.  Each iteration values one record or gives up
on one record, so the loop terminates; anything unrepairable lands in
``plan.errors``.

Everything here is pure — records in, plan out — and unit-tested per
structure in ``tests/unit/test_ops.py``.  The net layer feeds it merged
dumps (``repro.net.control``) and applies the plan (``repro.net.server``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.core.structures import get_structure
from repro.net.records import clone, facts, learn

__all__ = ["RebuildPlan", "merge_records", "plan_rebuild"]


def merge_records(dumps) -> dict[int, OpRecord]:
    """Merge record dumps from every surviving host into one view.

    ``dumps`` is an iterable of record iterables (each host contributes
    its own records, its custody archive, and its replica holdings).
    Facts merge through :func:`repro.net.records.learn`, the one rule the
    whole record plane shares, so the order of hosts and of copies does
    not matter.  Records are *copied* — callers may pass live objects.
    """
    merged: dict[int, OpRecord] = {}
    for dump in dumps:
        for rec in dump:
            have = merged.get(rec.req_id)
            if have is None:
                merged[rec.req_id] = clone(rec)
            else:
                learn(have, *facts(rec))
    return merged


@dataclass
class RebuildPlan:
    """Everything a host needs to rebuild its shard deterministically."""

    structure: str
    #: anchor export tuple for ``AnchorState.restore`` (per structure)
    anchor: tuple
    #: live elements in structure order, ``(*position, element)`` with the
    #: position stage 4 places an element at: queue ``(position,)``, stack
    #: ``(position, ticket)``, heap ``(priority, position)``
    elements: list = field(default_factory=list)
    #: req_ids to re-run from scratch (never ordered by the anchor)
    reruns: list = field(default_factory=list)
    #: req_ids completed by the replay (facts now on the merged records)
    completions: list = field(default_factory=list)
    #: req_ids whose lost facts were synthesized by the repair pass
    repairs: list = field(default_factory=list)
    #: human-readable notes on anything unrepairable
    errors: list = field(default_factory=list)


# -- the planner ---------------------------------------------------------------


def plan_rebuild(
    records: dict[int, OpRecord],
    structure: str,
    n_priorities: int = 1,
    epoch: int = 0,
    members: int = 0,
) -> RebuildPlan:
    """Replay the merged record set; derive completions, elements, anchor.

    Mutates the records in ``records`` (they are the merged copies):
    replay-completed records get their ``result``/``completed`` set,
    repaired records additionally a synthesized float ``value``.
    ``epoch``/``members`` seed the restored anchor's bookkeeping fields.
    """
    model = get_structure(structure).model  # ValueError if unknown
    plan = RebuildPlan(structure=structure, anchor=())
    recs = list(records.values())

    # records the anchor never ordered: invisible, re-run from scratch
    pool: dict[int, OpRecord] = {}
    for rec in recs:
        if rec.local_match:
            continue
        if rec.value is None:
            if rec.completed:
                plan.errors.append(
                    f"req {rec.req_id} completed without a value; dropped"
                )
            else:
                pool[rec.req_id] = rec

    skip: set[int] = set()  # completed records we gave up reconciling

    def replay() -> tuple:
        return _replay(recs, model, n_priorities, skip, dry=True)

    # each iteration values one pooled record or gives up on one
    # completed record, so 2·|recs| iterations always suffice
    for _ in range(2 * len(recs) + 2):
        ref, mismatch = replay()
        if mismatch is None:
            break
        if not _repair(mismatch, records, pool, replay, plan):
            rec = mismatch[0]
            skip.add(rec.req_id)
            plan.errors.append(
                f"req {rec.req_id}: recorded result irreconcilable with "
                "the merged history; trusting the record"
            )
    else:  # pragma: no cover - the loop is bounded by construction
        plan.errors.append("repair fixpoint did not converge")

    # final pass: apply completions for real
    ref, mismatch = _replay(recs, model, n_priorities, skip, dry=False, plan=plan)

    values = [r.value for r in recs if r.value is not None]
    counter = int(max(values)) + 1 if values else 1
    plan.reruns = sorted(r.req_id for r in pool.values() if r.value is None)
    plan.elements = ref.elements()
    plan.anchor = ref.anchor(counter, epoch, members)
    return plan


def _replay(recs, model, n_priorities, skip, dry, plan=None):
    """Value-ordered replay.  In ``dry`` mode, stop at the first
    mismatching completed remove and return ``(rec, served, taken)`` —
    ``taken`` maps the insert req_id of each element consumed so far to
    the remove that took it; otherwise
    apply results to incomplete records and force recorded results
    through."""
    ref = model(n_priorities)
    taken: dict = {}
    ordered = sorted(
        (r for r in recs if r.value is not None and not r.local_match),
        key=lambda r: (r.value, r.pid, r.idx),
    )
    for rec in ordered:
        if rec.kind == INSERT:
            ref.push(rec)
            if not dry and not rec.completed:
                rec.completed = True
                plan.completions.append(rec.req_id)
            continue
        served = ref.peek()
        if rec.completed:
            want = rec.result
            if want is BOTTOM or want is None:
                if served is None:
                    continue
                if rec.req_id in skip:
                    continue
                if dry:
                    return ref, (rec, served, taken)
                continue
            if served == want:
                taken[ref.consume()[0]] = rec
                continue
            if rec.req_id in skip:
                ref.discard(want)  # trust the record; unblock the replay
                continue
            if dry:
                return ref, (rec, served, taken)
            ref.discard(want)
            continue
        # incomplete but valued: the replay decides its fate
        if not dry:
            if served is None:
                rec.result = BOTTOM
            else:
                rec.result = ref.consume()
            rec.completed = True
            plan.completions.append(rec.req_id)
        elif served is not None:
            taken[ref.consume()[0]] = rec
    return ref, None


def _repair(mismatch, records, pool, replay, plan) -> bool:
    """Synthesize one lost event explaining ``mismatch``; True on success.

    ``replay()`` reruns the dry replay over the records as they stand."""
    rec, served, taken = mismatch
    recs = records.values()
    want = rec.result
    origin = None
    if want is not BOTTOM and want is not None:
        origin = records.get(want[0])  # the insert of the consumed element
        if origin is not None and origin.kind != INSERT:
            origin = None
    # a consumed element whose insert never got a value: materialise it
    if origin is not None and origin.req_id in pool and origin.value is None:
        for chain in _chains(pool, rec.value, recs, lambda r: r is origin):
            return _apply(chain, plan)
    # the replay gave the element to a valued remove that never completed
    # (its own position was a lost insert's): feed it a lost insert, which
    # the structure must serve ahead of the element — just before the
    # remove (LIFO) or just before the element's insert (FIFO)
    taker = taken.get(want[0]) if origin is not None else None
    if taker is not None and not taker.completed:
        spots = [taker.value]
        if origin.value is not None:
            spots.append(origin.value)
        for before in spots:
            for chain in _chains(pool, before, recs, lambda r: r.kind == INSERT):
                _, again = replay()
                if again is None or again[2].get(chain[-1].req_id) is taker:
                    return _apply(chain, plan)
                for lost in chain:
                    lost.value = None
    # the structure serves a stale element: a lost remove must have
    # consumed it before `rec` ran, and after it was inserted
    if served is not None:
        inserted = records.get(served[0])
        after = inserted.value if inserted is not None else None
        for chain in _chains(pool, rec.value, recs, lambda r: r.kind == REMOVE,
                             after):
            return _apply(chain, plan)
    return False


def _chains(pool, before: float, recs, last, after=None):
    """Ways to value lost records below ``before``.

    Each is a pid's unvalued pooled records in program order up to the
    first that ``last`` accepts — the earlier ones ran before it, so they
    are valued too — yielded with their values already assigned,
    ascending below ``before`` (and above ``after``, if given).  First
    the anchor values a lost batch held (see :func:`_lost_batch_slots`),
    wherever the chain fits: shortest chains first, as each record
    valued is one more the replay must place, then the latest values.
    Then, for every pid, fresh values just below ``before``.  A pid
    whose valued records could not stay in program order around the
    chain is passed over."""
    runs: dict[int, list[OpRecord]] = {}
    for rec in pool.values():
        if rec.value is None:
            runs.setdefault(rec.pid, []).append(rec)
    held = {rec.value for rec in recs if rec.value is not None}
    chains = []
    for pid in sorted(runs):
        run = sorted(runs[pid], key=lambda r: r.idx)
        end = next((i for i, r in enumerate(run) if last(r)), None)
        if end is not None:
            chains.append(run[:end + 1])
    candidates = sorted(
        ((run, slots[:len(run)]) for run in chains
         for slots in _lost_batch_slots(run, recs, held, before, after)
         if len(slots) >= len(run)),
        key=lambda candidate: (len(candidate[0]), -candidate[1][0]),
    )
    floor = max((value for value in held if value < before), default=before - 1)
    for run in chains:
        step = (before - floor) / (len(run) + 1)
        values = [floor + step * (i + 1) for i in range(len(run))]
        if all(a < b for a, b in zip([floor] + values, values + [before])):
            candidates.append((run, values))
    for run, values in candidates:
        pid, lo, hi = run[0].pid, run[0].idx, run[-1].idx
        if any(
            lo < other.idx < hi
            or (other.idx < lo and other.value >= values[0])
            or (other.idx > hi and other.value <= values[-1])
            for other in recs
            if other.pid == pid and other.value is not None
        ):
            continue
        for lost, value in zip(run, values):
            lost.value = value
        yield run


def _lost_batch_slots(run, recs, held, before, after) -> list[list[int]]:
    """The anchor values ``run``'s lost batch may have held.

    A node keeps one batch in flight, so the batch after a pid's last
    valued record is one whose SERVE died, and the anchor gave it whole
    values that no record holds, above that record: one of the runs of
    missing values there.  The survivors' waves went on around them
    until the eviction: valued just below the remove that exposed it
    instead, a lost record lands after records it ran before.  Returns
    those runs between ``after`` and ``before``; none for a pid with no
    valued record."""
    prior = max((other.value for other in recs
                 if other.pid == run[0].pid and other.value is not None
                 and other.idx < run[0].idx), default=None)
    if prior is None:
        return []
    start = int(prior if after is None else max(prior, after)) + 1
    stop = ceil(before)
    whole = sorted(value for value in held
                   if start <= value < stop and value == int(value))
    gaps = []
    for end in [*whole, stop]:
        if start < end:
            gaps.append(list(range(start, int(end))))
        start = int(end) + 1
    return gaps


def _apply(chain, plan) -> bool:
    plan.repairs.extend(lost.req_id for lost in chain)
    return True
