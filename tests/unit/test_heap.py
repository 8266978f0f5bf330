"""Unit tests for the Skeap heap building blocks.

Covers the pieces the integration suite exercises only indirectly: the
per-priority anchor arithmetic, the ``(priority, position)`` DHT store,
the structure registry, and the heap branch of the Definition-1 checker
— including deliberately corrupted histories that must be rejected.
"""

from __future__ import annotations

import pytest

from repro.core.anchor import HeapAnchorState
from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.core.structures import get_structure, structure_names
from repro.dht.storage import PARKED, HeapStore
from repro.util.hashing import heap_position_key
from repro.verify import ConsistencyViolation, check_heap_history


# -- heap_position_key ---------------------------------------------------------


class TestHeapPositionKey:
    def test_classes_do_not_collide_on_shared_positions(self):
        keys = {
            heap_position_key(priority, position, salt="k")
            for priority in range(4)
            for position in range(64)
        }
        assert len(keys) == 4 * 64

    def test_deterministic_and_salted(self):
        assert heap_position_key(1, 7, "s") == heap_position_key(1, 7, "s")
        assert heap_position_key(1, 7, "s") != heap_position_key(1, 7, "t")
        assert 0.0 <= heap_position_key(2, 3, "s") < 1.0


# -- HeapAnchorState -----------------------------------------------------------


class TestHeapAnchorState:
    def test_inserts_extend_per_class_intervals(self):
        state = HeapAnchorState(3)
        out = state.assign([0, 2, 0, 5])
        assert out[0] == (1, ())  # no removals, no segments
        assert out[1] == (0, 1, 1)  # class 0: positions 0..1, values 1..2
        assert out[2] == (0, -1, 3)  # class 1: empty run, value cursor moves on
        assert out[3] == (0, 4, 3)  # class 2: positions 0..4, values 3..7
        assert state.last == [1, -1, 4]
        assert state.size == 7

    def test_removals_drain_lowest_class_first(self):
        state = HeapAnchorState(3)
        state.assign([0, 2, 3, 1])  # sizes per class: 2, 3, 1
        (value, segments), *_ = state.assign([4])
        assert segments == ((0, 0, 1), (1, 0, 1))
        assert value == state.counter - 4
        assert [state.class_size(p) for p in range(3)] == [0, 1, 1]

    def test_removals_beyond_total_clamp(self):
        state = HeapAnchorState(2)
        state.assign([0, 1, 1])
        (_value, segments), *_ = state.assign([5])
        assert sum(hi - lo + 1 for _p, lo, hi in segments) == 2
        assert state.size == 0
        # positions are never reused: fresh inserts extend past the clamp
        out = state.assign([0, 1, 0])
        assert out[1] == (1, 1, state.counter - 1)

    def test_value_ranks_cover_every_request(self):
        state = HeapAnchorState(2)
        before = state.counter
        state.assign([3, 2, 4])
        assert state.counter - before == 9

    def test_export_restore_round_trip(self):
        state = HeapAnchorState(3)
        state.assign([0, 2, 3, 1])
        state.assign([4])
        state.epoch = 5
        state.members = 12
        clone = HeapAnchorState.restore(state.export())
        assert clone.first == state.first
        assert clone.last == state.last
        assert clone.counter == state.counter
        assert clone.epoch == 5 and clone.members == 12
        assert clone.n_priorities == 3

    def test_invariant_guard(self):
        with pytest.raises(ValueError):
            HeapAnchorState(0)

    def test_empty_runs_are_a_no_op(self):
        state = HeapAnchorState(2)
        assert state.assign([]) == []
        assert state.counter == 1


# -- HeapStore -----------------------------------------------------------------


class TestHeapStore:
    def test_put_then_get(self):
        store = HeapStore()
        key = heap_position_key(1, 0, "s")
        assert store.put(key, ("e", 1)) is None
        assert store.occupancy == 1
        assert store.get(key, ("ctx",)) == ("e", 1)
        assert store.occupancy == 0

    def test_get_outruns_put_and_parks(self):
        store = HeapStore()
        key = heap_position_key(0, 3, "s")
        assert store.get(key, ("requester", 7)) is PARKED
        waiter = store.put(key, ("e", 2))
        assert waiter == ("requester", 7)  # served straight to the parked GET
        assert store.occupancy == 0

    def test_single_use_keys_are_enforced(self):
        store = HeapStore()
        key = heap_position_key(2, 5, "s")
        store.put(key, "x")
        with pytest.raises(RuntimeError):
            store.put(key, "y")

    def test_extract_absorb_hand_over(self):
        donor, heir = HeapStore(), HeapStore()
        keys = [heap_position_key(p, i, "s") for p in range(2) for i in range(4)]
        for i, key in enumerate(keys):
            donor.put(key, ("e", i))
        lo, hi = 0.25, 0.75
        items, parked = donor.extract_range(lo, hi)
        assert all(lo <= k < hi for k in items)
        assert donor.occupancy + len(items) == len(keys)
        ready = heir.absorb(items, parked)
        assert ready == []
        assert heir.occupancy == len(items)

    def test_absorb_answers_parked_gets(self):
        heir = HeapStore()
        key = heap_position_key(1, 9, "s")
        assert heir.get(key, ("ctx", 1)) is PARKED
        ready = heir.absorb({key: ("e", 9)}, {})
        assert ready == [(key, ("ctx", 1), ("e", 9))]


# -- structure registry --------------------------------------------------------


class TestStructureRegistry:
    def test_registered_names(self):
        assert structure_names() == ["heap", "queue", "stack"]

    def test_specs_are_complete(self):
        for name in structure_names():
            spec = get_structure(name)
            assert callable(spec.buffer) and callable(spec.place)
            assert callable(spec.check_history)
            assert spec.session_class.structure == name

    def test_kind_names_are_the_spec_vocabulary(self):
        names = {name: (get_structure(name).kind_name(INSERT),
                        get_structure(name).kind_name(REMOVE))
                 for name in structure_names()}
        assert names == {
            "queue": ("enqueue", "dequeue"),
            "stack": ("push", "pop"),
            "heap": ("insert", "delete_min"),
        }

    def test_unknown_structure_lists_valid_names(self):
        with pytest.raises(ValueError, match="'heap', 'queue', 'stack'"):
            get_structure("deque")


# -- check_heap_history --------------------------------------------------------


def _record(req_id, pid, idx, kind, item=None, priority=0, value=None,
            result=None):
    rec = OpRecord(req_id, pid, idx, kind, item, 0.0, priority=priority)
    rec.value = value
    rec.result = result
    rec.completed = True
    return rec


def _history():
    """A valid two-class history: low class served before the older high
    class element, FIFO inside the low class."""
    ins_a = _record(0, 0, 0, INSERT, "slow", priority=1, value=1)
    ins_b = _record(1, 1, 0, INSERT, "fast-1", priority=0, value=2)
    ins_c = _record(2, 1, 1, INSERT, "fast-2", priority=0, value=3)
    rem_1 = _record(3, 2, 0, REMOVE, value=4, result=ins_b.element)
    rem_2 = _record(4, 2, 1, REMOVE, value=5, result=ins_c.element)
    rem_3 = _record(5, 0, 1, REMOVE, value=6, result=ins_a.element)
    rem_4 = _record(6, 1, 2, REMOVE, value=7, result=BOTTOM)
    return [ins_a, ins_b, ins_c, rem_1, rem_2, rem_3, rem_4]


class TestCheckHeapHistory:
    def test_valid_history_passes(self):
        check_heap_history(_history())

    def test_priority_inversion_is_rejected(self):
        history = _history()
        # first removal returns the class-1 element while class 0 is live
        history[3].result, history[5].result = (
            history[5].result, history[3].result,
        )
        with pytest.raises(ConsistencyViolation, match="minimum priority"):
            check_heap_history(history)

    def test_fifo_violation_within_class_is_rejected(self):
        history = _history()
        # the two class-0 removals come back newest-first
        history[3].result, history[4].result = (
            history[4].result, history[3].result,
        )
        with pytest.raises(ConsistencyViolation, match="FIFO within class 0"):
            check_heap_history(history)

    def test_bottom_with_stored_elements_is_rejected(self):
        history = _history()
        history[5].result = BOTTOM
        with pytest.raises(ConsistencyViolation, match="property 2"):
            check_heap_history(history)

    def test_result_from_empty_heap_is_rejected(self):
        history = _history()
        history[6].result = ("ghost", "item")
        with pytest.raises(ConsistencyViolation):
            check_heap_history(history)

    def test_element_removed_twice_is_rejected(self):
        history = _history()
        history[4].result = history[3].result
        with pytest.raises(ConsistencyViolation):
            check_heap_history(history)

    def test_program_order_violation_is_rejected(self):
        history = _history()
        # pid 1's two inserts swap witness ranks: property 4
        history[1].value, history[2].value = 3, 2
        with pytest.raises(ConsistencyViolation, match="property 4"):
            check_heap_history(history)

    def test_invalid_priority_is_rejected(self):
        history = _history()
        history[0].priority = -2
        with pytest.raises(ConsistencyViolation, match="invalid priority"):
            check_heap_history(history)

    def test_incomplete_record_is_rejected(self):
        history = _history()
        history[3].completed = False
        with pytest.raises(ConsistencyViolation, match="never completed"):
            check_heap_history(history)
