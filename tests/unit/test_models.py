"""Unit tests for the sequential models (repro.verify.models).

The checker and the crash rebuild both replay these, so each method is
pinned here directly rather than only through either user.
"""

import pytest

from repro.core.requests import INSERT, OpRecord
from repro.verify.models import HeapModel, QueueModel, StackModel


def ins(req_id, item, priority=0):
    return OpRecord(req_id, 0, req_id, INSERT, item, 0.0, priority=priority)


class TestQueueModel:
    def test_fifo_and_empty(self):
        q = QueueModel()
        assert q.peek() is None
        q.push(ins(1, "a"))
        q.push(ins(2, "b"))
        assert q.peek() == (1, "a")
        assert q.consume() == (1, "a")
        assert q.peek() == (2, "b")

    def test_discard_elements_and_anchor(self):
        q = QueueModel()
        for i, item in enumerate("abc"):
            q.push(ins(i, item))
        assert q.discard((1, "b"))
        assert not q.discard((1, "b"))
        assert q.elements() == [(0, (0, "a")), (1, (2, "c"))]
        assert q.anchor(7, 2, 5) == (0, 1, 7, 2, 5)
        assert QueueModel().anchor(1, 0, 0) == (0, -1, 1, 0, 0)

    def test_admits_every_insert(self):
        assert QueueModel.admit(ins(0, "a", priority=-1)) is None


class TestStackModel:
    def test_lifo_and_empty(self):
        s = StackModel()
        assert s.peek() is None
        s.push(ins(1, "a"))
        s.push(ins(2, "b"))
        assert s.consume() == (2, "b")
        assert s.peek() == (1, "a")

    def test_positions_double_as_tickets(self):
        s = StackModel()
        s.push(ins(1, "a"))
        s.push(ins(2, "b"))
        assert s.elements() == [(1, 1, (1, "a")), (2, 2, (2, "b"))]
        assert s.anchor(9, 0, 3) == (2, 2, 9, 0, 3)


class TestHeapModel:
    def test_lowest_class_first_fifo_within(self):
        h = HeapModel(3)
        h.push(ins(1, "x", priority=2))
        h.push(ins(2, "y", priority=1))
        h.push(ins(3, "z", priority=1))
        assert h.consume() == (2, "y")
        assert h.consume() == (3, "z")
        assert h.consume() == (1, "x")
        assert h.peek() is None
        with pytest.raises(IndexError):
            h.consume()

    def test_grows_a_class_on_push(self):
        # the checker knows no class count: it starts at one class
        h = HeapModel()
        h.push(ins(1, "far", priority=7))
        h.push(ins(2, "near", priority=3))
        assert h.peek() == (2, "near")
        assert h.elements() == [(3, 0, (2, "near")), (7, 0, (1, "far"))]

    def test_anchor_emits_exactly_n_priorities_classes(self):
        h = HeapModel(4)
        h.push(ins(1, "a", priority=1))
        h.push(ins(2, "b", priority=1))
        firsts, lasts, counter, epoch, members = h.anchor(5, 1, 2)
        assert firsts == (0, 0, 0, 0)
        assert lasts == (-1, 1, -1, -1)
        assert (counter, epoch, members) == (5, 1, 2)
        assert len(HeapModel(0).anchor(1, 0, 0)[0]) == 1

    def test_discard_searches_every_class(self):
        h = HeapModel(2)
        h.push(ins(1, "a", priority=0))
        h.push(ins(2, "b", priority=1))
        assert h.discard((2, "b"))
        assert not h.discard((2, "b"))
        assert h.elements() == [(0, 0, (1, "a"))]

    def test_admit_rejects_negative_and_non_int_priorities(self):
        assert HeapModel.admit(ins(0, "a", priority=2)) is None
        assert "invalid priority -1" in HeapModel.admit(ins(0, "a", priority=-1))
        assert "invalid priority '1'" in HeapModel.admit(ins(0, "a", priority="1"))

    def test_misorder_names_the_violated_rule(self):
        h = HeapModel(2)
        h.push(ins(1, "a", priority=0))
        h.push(ins(2, "b", priority=0))
        h.push(ins(3, "c", priority=1))
        remove = OpRecord(9, 1, 0, 1, None, 0.0)
        remove.result = (3, "c")
        assert "(minimum priority)" in h.misorder(remove, (1, "a"))
        remove.result = (2, "b")
        assert "(FIFO within class 0)" in h.misorder(remove, (1, "a"))
        assert h.holding((1, "a")) == "(1, 'a') was stored at priority 0"
