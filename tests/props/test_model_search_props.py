"""Property-based tests: the sequential models against the independent search.

The witness checker (``check_*_history``) replays one order — the
anchor's value ranks — against the structure's model in
:mod:`repro.verify.models`.  :func:`repro.verify.exists_valid_order`
knows neither the witness nor the models: it backtracks over every
interleaving with its own reference structures.  On tiny histories
(<= 3 processes, <= 8 operations) the two must agree:

* a history made by driving the model sequentially — values in that
  order — passes both;
* with one removal's result corrupted, whenever the search finds no
  valid order at all, the checker must raise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.verify import (
    ConsistencyViolation,
    check_heap_history,
    check_queue_history,
    check_stack_history,
    exists_valid_order,
)
from repro.verify.models import HeapModel, QueueModel, StackModel

STRUCTURES = {
    "queue": (QueueModel, check_queue_history, "fifo"),
    "stack": (StackModel, check_stack_history, "lifo"),
    "heap": (HeapModel, check_heap_history, "heap"),
}

# (pid, is_insert, priority); the priority only matters on the heap
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=8,
)


def sequential_history(model, steps, heap: bool) -> list[OpRecord]:
    """Run ``steps`` one at a time through ``model``; each record's value
    is its place in that run, so the witness order is the run itself."""
    counts: dict[int, int] = {}
    records = []
    for req_id, (pid, is_insert, priority) in enumerate(steps):
        idx = counts.get(pid, 0)
        counts[pid] = idx + 1
        rec = OpRecord(
            req_id, pid, idx, INSERT if is_insert else REMOVE, f"e{req_id}", 0.0,
            priority=priority if heap and is_insert else 0,
        )
        rec.value = req_id + 1
        rec.completed = True
        if is_insert:
            model.push(rec)
        else:
            rec.result = BOTTOM if model.peek() is None else model.consume()
        records.append(rec)
    return records


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@given(steps=steps)
@settings(max_examples=60, deadline=None)
def test_sequential_runs_pass_both(structure, steps):
    model, check, discipline = STRUCTURES[structure]
    records = sequential_history(model(3), steps, structure == "heap")
    check(records)
    assert exists_valid_order(records, discipline)


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@given(steps=steps, data=st.data())
@settings(max_examples=120, deadline=None)
def test_no_valid_order_means_the_checker_raises(structure, steps, data):
    model, check, discipline = STRUCTURES[structure]
    records = sequential_history(model(3), steps, structure == "heap")
    removes = [rec for rec in records if rec.kind == REMOVE]
    if not removes:
        return
    victim = data.draw(st.sampled_from(removes))
    inserted = [rec.element for rec in records if rec.kind == INSERT]
    victim.result = data.draw(st.sampled_from([BOTTOM, *inserted]))
    if not exists_valid_order(records, discipline):
        with pytest.raises(ConsistencyViolation):
            check(records)
