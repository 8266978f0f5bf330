"""One contract for the wave buffer of every registered structure.

A node's buffer decides, before a request ever travels, which wave it
rides and where in the batch it sits — which is where property 4 of
Definition 1 (per-process program order) is won or lost.  The checks
below run against ``spec.buffer`` of each entry of the registry, so a
structure registered later is held to the same contract without a line
added here; the run layouts of the three known structures (they are the
wire format of ``A_AGG``) are pinned at the end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import INSERT, REMOVE, OpRecord
from repro.core.structures import REGISTRY

N_PRIORITIES = 3
STRUCTURES = sorted(REGISTRY)

adds = st.tuples(
    st.just("add"),
    st.integers(0, 3),  # pid
    st.sampled_from([INSERT, REMOVE]),
    st.integers(0, N_PRIORITIES - 1),
)
steps = st.lists(
    st.one_of(adds, st.sampled_from([("take",), ("requeue",), ("drain",)])),
    max_size=60,
)


class _Harness:
    """Drives one buffer and keeps the books the contract is stated in:
    ``log`` is every record in the order it left for good (a wave that
    was taken and not requeued, or a drain), ``alive`` what has not left
    yet, ``pairs`` what the buffer annihilated."""

    def __init__(self, structure: str) -> None:
        self.buffer = REGISTRY[structure].buffer(N_PRIORITIES, self._annihilated)
        self.next_idx: dict[int, int] = {}
        self.alive: set[OpRecord] = set()
        self.inflight: list[OpRecord] | None = None
        self.log: list[OpRecord] = []
        self.pairs: list[tuple[OpRecord, OpRecord]] = []
        self.added = 0

    def _annihilated(self, push: OpRecord, pop: OpRecord) -> None:
        # only ever a pop with the latest unsent push its own process
        # issued before it
        assert (push.kind, pop.kind) == (INSERT, REMOVE)
        assert push.pid == pop.pid
        unsent = [r.idx for r in self.alive if r.pid == pop.pid
                  and r.kind == INSERT and r.idx < pop.idx]
        assert push.idx == max(unsent)
        self.alive -= {push, pop}
        self.pairs.append((push, pop))

    def record(self, pid: int, kind: int, priority: int = 0) -> OpRecord:
        idx = self.next_idx.get(pid, 0)
        self.next_idx[pid] = idx + 1
        rec = OpRecord(self.added, pid, idx, kind, None, 0.0,
                       priority=priority if kind == INSERT else 0)
        self.added += 1
        self.alive.add(rec)
        return rec

    def add(self, pid: int, kind: int, priority: int = 0) -> None:
        self.buffer.add(self.record(pid, kind, priority))

    def _commit(self) -> None:
        if self.inflight is not None:
            self.log.extend(self.inflight)
            self.inflight = None

    def take(self) -> tuple[list[int], list[OpRecord]]:
        self._commit()
        runs, records = self.buffer.take()
        assert sum(runs) == len(records)
        cursor = 0
        for run in runs:  # records come out in run order: one kind per run
            assert len({r.kind for r in records[cursor:cursor + run]}) <= 1
            cursor += run
        self.alive -= set(records)
        self.inflight = records
        return runs, records

    def requeue(self) -> None:
        if self.inflight is not None:
            self.alive |= set(self.inflight)
            self.buffer.requeue(self.inflight)
            self.inflight = None

    def drain(self) -> list[OpRecord]:
        self._commit()
        records = self.buffer.drain()
        assert not self.buffer
        self.alive -= set(records)
        self.log.extend(records)
        return records

    def check(self) -> None:
        self.drain()
        gone = [r for pair in self.pairs for r in pair]
        assert len(self.log) + len(gone) == self.added
        assert len(set(self.log) | set(gone)) == self.added  # each exactly once
        last: dict[int, int] = {}
        for rec in self.log:  # per-pid submission order survived
            assert rec.idx > last.get(rec.pid, -1), (rec, self.log)
            last[rec.pid] = rec.idx


@pytest.mark.parametrize("structure", STRUCTURES)
@settings(max_examples=150, deadline=None)
@given(steps)
def test_program_order_survives_any_interleaving(structure, script):
    harness = _Harness(structure)
    for step in script:
        if step[0] == "add":
            harness.add(*step[1:])
        else:
            getattr(harness, step[0])()
        assert bool(harness.buffer) == bool(harness.alive)
    harness.check()


@pytest.mark.parametrize("structure", STRUCTURES)
@settings(max_examples=100, deadline=None)
@given(st.lists(adds, min_size=1, max_size=20), st.lists(adds, max_size=20))
def test_requeue_puts_the_inflight_batch_before_what_came_since(
    structure, first, since
):
    harness = _Harness(structure)
    for step in first:
        harness.add(*step[1:])
    _runs, inflight = harness.take()
    for step in since:
        harness.add(*step[1:])
    harness.requeue()
    out = harness.drain()
    sent = set(inflight)
    for pid in {rec.pid for rec in out}:
        mine = [rec in sent for rec in out if rec.pid == pid]
        assert mine == sorted(mine, reverse=True)  # requeued ones first
    harness.check()


@pytest.mark.parametrize("structure", STRUCTURES)
def test_an_empty_buffer_takes_and_drains_nothing(structure):
    harness = _Harness(structure)
    assert not harness.buffer
    assert harness.take() == ([], [])
    assert harness.drain() == []


def _deep(structure: str) -> _Harness:
    """A backlog 3200 records deep that leaves two to a wave."""
    harness = _Harness(structure)
    if structure == "heap":  # one process walking the classes downwards
        for i in range(3201):
            harness.add(0, INSERT, priority=(i + 1) % 2)
    else:  # pops that can neither cancel nor precede another's pushes
        harness.add(0, INSERT)
        for _ in range(1600):
            harness.add(1, REMOVE)
            harness.add(0, INSERT)
    assert len(harness.buffer.overflow) == 3200
    return harness


@pytest.mark.parametrize("structure", ["stack", "heap"])
def test_drain_hands_over_every_record_whatever_the_overflow_depth(structure):
    """1600 waves' worth: a hand-over that gives up after a fixed number
    of waves loses the tail (``_on_depart_commit`` stopped at 1024)."""
    harness = _deep(structure)
    assert len(harness.drain()) == 3201 and not harness.pairs
    harness.check()


@pytest.mark.parametrize("structure", ["stack", "heap"])
def test_a_deep_backlog_leaves_wave_by_wave_in_program_order(structure):
    harness = _deep(structure)
    waves = 0
    while harness.buffer:
        assert sum(harness.take()[0]) <= 2
        waves += 1
    assert waves > 1024
    harness.check()


# -- the three layouts on the wire ---------------------------------------------


def _runs_after(structure: str, ops) -> list[int]:
    harness = _Harness(structure)
    for pid, kind, priority in ops:
        harness.add(pid, kind, priority)
    return harness.take()[0]


def test_queue_runs_alternate_in_submission_order():
    ops = [(0, REMOVE, 0), (1, INSERT, 0), (0, INSERT, 0), (2, REMOVE, 0)]
    assert _runs_after("queue", ops) == [0, 1, 2, 1]


def test_stack_runs_are_pops_then_pushes():
    ops = [(0, REMOVE, 0), (1, REMOVE, 0), (0, INSERT, 0)]
    assert _runs_after("stack", ops) == [2, 1]


def test_heap_runs_are_removes_then_one_insert_run_per_class():
    ops = [(0, REMOVE, 0), (1, INSERT, 2), (2, INSERT, 0), (3, INSERT, 2)]
    assert _runs_after("heap", ops) == [1, 1, 0, 2]


def test_a_stack_pop_behind_another_process_push_waits_a_wave():
    harness = _Harness("stack")
    harness.add(0, INSERT)  # e.g. adopted from a departed process
    harness.add(1, REMOVE)  # can neither cancel it nor precede it
    harness.add(1, INSERT)  # committed behind its own pop
    assert harness.take()[0] == [0, 1]
    assert harness.buffer and not harness.pairs
    assert harness.take()[0] == [1, 1]
    harness.check()
