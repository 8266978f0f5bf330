"""The sequential structures Definition 1 is stated against.

One model per structure, written once and replayed by both of the
places that need sequential semantics: the Definition-1 checker
(:mod:`repro.verify.seqcons`) replays a history's witness order against
it, and the crash rebuild (:mod:`repro.ops.recovery`) replays the merged
record set against it to derive results, the surviving elements and the
anchor to restore.  A structure names its model in its
:class:`~repro.core.structures.StructureSpec` (``model_ref``).

A model holds element tags (``OpRecord.element``) in structure order:
``push`` stores an INSERT's element, ``peek`` names the element a
removal would take now (``None`` when empty) and ``consume`` takes it.
``discard``, ``elements`` and ``anchor`` serve the rebuild; ``admit``,
``noun``, ``holding`` and ``misorder`` phrase the checker's violations.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

from repro.core.requests import OpRecord

__all__ = ["HeapModel", "QueueModel", "StackModel"]


class QueueModel:
    """FIFO: a removal takes the oldest element."""

    noun = "queue"
    rule = "FIFO"

    def __init__(self, n_priorities: int = 1) -> None:
        self.items: deque = deque()

    @staticmethod
    def admit(rec: OpRecord) -> str | None:
        """Why this INSERT cannot enter the structure (``None``: it can)."""
        return None

    def push(self, rec: OpRecord) -> None:
        self.items.append(rec.element)

    def peek(self):
        return self.items[0] if self.items else None

    def consume(self):
        return self.items.popleft()

    def discard(self, element) -> bool:
        try:
            self.items.remove(element)
            return True
        except ValueError:
            return False

    def elements(self) -> list:
        """The survivors as ``RebuildPlan.elements`` entries."""
        return list(enumerate(self.items))

    def anchor(self, counter: int, epoch: int, members: int) -> tuple:
        """The anchor export that hands out the positions after them."""
        return (0, len(self.items) - 1, counter, epoch, members)

    def holding(self, expected) -> str:
        """Where ``expected`` sat when a removal returned BOTTOM."""
        return f"{expected!r} was in the queue"

    def misorder(self, rec: OpRecord, expected) -> str:
        """The property-3 message for ``rec`` returning the wrong element."""
        return (
            f"property 3 violated ({self.rule}): {rec!r} returned "
            f"{rec.result!r}, expected {expected!r}"
        )


class StackModel(QueueModel):
    """LIFO: a removal takes the newest element."""

    noun = "stack"
    rule = "LIFO"

    def peek(self):
        return self.items[-1] if self.items else None

    def consume(self):
        return self.items.pop()

    def elements(self) -> list:
        # positions run 1..m; a survivor's ticket is its position
        return [(pos, pos, el) for pos, el in enumerate(self.items, start=1)]

    def anchor(self, counter: int, epoch: int, members: int) -> tuple:
        m = len(self.items)
        return (m, m, counter, epoch, members)

    def holding(self, expected) -> str:
        return f"{expected!r} was on the stack"


class HeapModel:
    """Skeap's constant-priority queue: one FIFO per class, a removal
    takes the oldest element of the lowest non-empty class.

    Starts with ``n_priorities`` classes and grows a class on the first
    push into it (the checker knows no class count); ``anchor`` still
    exports exactly ``n_priorities`` of them.
    """

    noun = "heap"

    def __init__(self, n_priorities: int = 1) -> None:
        self.width = max(1, n_priorities)
        self.classes: dict[int, deque] = {p: deque() for p in range(self.width)}
        self.order = list(range(self.width))  # class numbers, ascending

    @staticmethod
    def admit(rec: OpRecord) -> str | None:
        priority = rec.priority
        if not isinstance(priority, int) or priority < 0:
            return f"{rec!r}: invalid priority {priority!r}"
        return None

    def push(self, rec: OpRecord) -> None:
        chunk = self.classes.get(rec.priority)
        if chunk is None:
            chunk = self.classes[rec.priority] = deque()
            insort(self.order, rec.priority)
        chunk.append(rec.element)

    def _lowest(self) -> int | None:
        """The lowest non-empty class, ``None`` when the heap is empty."""
        for priority in self.order:
            if self.classes[priority]:
                return priority
        return None

    def peek(self):
        lowest = self._lowest()
        return None if lowest is None else self.classes[lowest][0]

    def consume(self):
        lowest = self._lowest()
        if lowest is None:
            raise IndexError("consume on empty heap")
        return self.classes[lowest].popleft()

    def discard(self, element) -> bool:
        for priority in self.order:
            chunk = self.classes[priority]
            if element in chunk:
                chunk.remove(element)
                return True
        return False

    def elements(self) -> list:
        return [
            (priority, pos, element)
            for priority in self.order
            for pos, element in enumerate(self.classes[priority])
        ]

    def anchor(self, counter: int, epoch: int, members: int) -> tuple:
        firsts = (0,) * self.width
        lasts = tuple(len(self.classes[p]) - 1 for p in range(self.width))
        return (firsts, lasts, counter, epoch, members)

    def holding(self, expected) -> str:
        return f"{expected!r} was stored at priority {self._lowest()}"

    def misorder(self, rec: OpRecord, expected) -> str:
        lowest = self._lowest()
        got = next(
            (
                priority
                for priority in self.order
                for element in self.classes[priority]
                if element[0] == rec.result[0]
            ),
            None,
        )
        if got is not None and got != lowest:
            return (
                f"property 3 violated (minimum priority): {rec!r} returned "
                f"{rec.result!r} of class {got} while class {lowest} held "
                f"{expected!r}"
            )
        return (
            f"property 3 violated (FIFO within class {lowest}): {rec!r} "
            f"returned {rec.result!r}, expected {expected!r}"
        )
