"""Operation batches (Definition 5) and their combination.

A batch is a run-length encoding of a sequence of queue operations:
``runs[i]`` is the length of the *i*-th run, runs alternate between
INSERT (even list index — the paper's odd ``op_i``) and REMOVE (odd list
index).  A batch that starts with removals simply has a zero-length first
insert run, matching the paper's convention that ``op_1`` is always an
enqueue count.

Two batches combine by element-wise sum (the paper's ``op''_i = op_i +
op'_i``): within each run of the combined batch the contributions of the
sub-batches appear *in a fixed order*, and stage 3 undoes the combination
in exactly that order — this pairing is what the value construction of
Section V rides on.

For the stack (Section VI) batches are always ``[pops, pushes]`` — local
annihilation guarantees a node's buffered operations reduce to a pop run
followed by a push run, so the same representation and the same
element-wise combination apply, with constant size (Theorem 20).

JOIN/LEAVE bookkeeping travels with batches as two extra counters
(Section IV): the number of join and leave grants a node became
responsible for since it last sent a batch.
"""

from __future__ import annotations

from repro.core.requests import INSERT

__all__ = ["Batch", "combine_runs"]


def combine_runs(target: list[int], runs) -> None:
    """Element-wise add ``runs`` into ``target`` in place (Definition 5)."""
    if len(runs) > len(target):
        target.extend([0] * (len(runs) - len(target)))
    for i, op in enumerate(runs):
        target[i] += op


class Batch:
    """A node-side batch buffer (the paper's ``v.W``)."""

    __slots__ = ("runs", "joins", "leaves")

    def __init__(self) -> None:
        self.runs: list[int] = []
        self.joins = 0
        self.leaves = 0

    @property
    def is_empty(self) -> bool:
        return not self.runs and not self.joins and not self.leaves

    @property
    def total_ops(self) -> int:
        return sum(self.runs)

    def add(self, kind: int) -> None:
        """Append one operation, respecting the local generation order.

        Extends the last run when the kind matches its parity, otherwise
        starts a new run (inserting a zero-length first insert run when
        the batch begins with a removal) — Section III-A.
        """
        runs = self.runs
        if kind == INSERT:
            if len(runs) % 2 == 1:  # last run is an insert run
                runs[-1] += 1
            else:
                runs.append(1)
        else:
            if len(runs) % 2 == 0:
                if runs:
                    runs[-1] += 1
                else:
                    runs.extend((0, 1))
            else:
                runs.append(1)

    def merge(self, runs, joins: int = 0, leaves: int = 0) -> None:
        combine_runs(self.runs, runs)
        self.joins += joins
        self.leaves += leaves

    def take(self) -> tuple[list[int], int, int]:
        """Move the buffered contents out (the ``v.B <- v.W`` step)."""
        out = (self.runs, self.joins, self.leaves)
        self.runs = []
        self.joins = 0
        self.leaves = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Batch({self.runs}, j={self.joins}, l={self.leaves})"
