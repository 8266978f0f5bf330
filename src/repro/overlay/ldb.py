"""Linearized De Bruijn network (Definition 2).

Every process ``v`` emulates three virtual nodes:

* middle ``m(v)`` with label ``h(v.id) in [0, 1)``,
* left  ``l(v)`` with label ``m(v) / 2``        (always in ``[0, 0.5)``),
* right ``r(v)`` with label ``(m(v) + 1) / 2``  (always in ``[0.5, 1)``).

All virtual nodes are arranged on a cycle sorted by label; consecutive
nodes are connected by *linear* edges and same-process nodes by *virtual*
edges.  Virtual node ids are dense integers ``vid = 3 * pid + kind`` so
simulation lookups stay cheap at 10^5-process scale.

:class:`LdbTopology` is the *static snapshot* used to bootstrap a cluster
and as ground truth in tests; the live protocol maintains the same
pred/succ structure in per-node state and changes it only through the
JOIN/LEAVE machinery.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.util.hashing import label_of

__all__ = [
    "LEFT",
    "MIDDLE",
    "RIGHT",
    "KIND_NAMES",
    "LdbTopology",
    "kind_of",
    "pid_of",
    "vid_of",
    "virtual_label",
]

LEFT, MIDDLE, RIGHT = 0, 1, 2
KIND_NAMES = ("left", "middle", "right")


def vid_of(pid: int, kind: int) -> int:
    """Dense virtual-node id of process ``pid``'s node of the given kind."""
    return 3 * pid + kind


def pid_of(vid: int) -> int:
    return vid // 3


def kind_of(vid: int) -> int:
    return vid % 3


def virtual_label(middle_label: float, kind: int) -> float:
    """Label of the left/middle/right node of a process (Definition 2)."""
    if kind == MIDDLE:
        return middle_label
    if kind == LEFT:
        return middle_label / 2.0
    if kind == RIGHT:
        return (middle_label + 1.0) / 2.0
    raise ValueError(f"unknown virtual node kind {kind}")


class LdbTopology:
    """Sorted-cycle snapshot of an LDB over a set of processes."""

    def __init__(self, process_ids: list[int], salt: str = "") -> None:
        self.salt = salt
        self.labels: dict[int, float] = {}
        order: list[tuple[float, int]] = []
        seen: set[float] = set()
        for pid in process_ids:
            mid = label_of(pid, salt=salt)
            if mid in seen:  # pragma: no cover - 2^-53 probability
                raise ValueError(f"label collision for process {pid}")
            seen.add(mid)
            for kind in (LEFT, MIDDLE, RIGHT):
                vid = vid_of(pid, kind)
                lbl = virtual_label(mid, kind)
                self.labels[vid] = lbl
                order.append((lbl, vid))
        if not order:
            raise ValueError("topology needs at least one process")
        order.sort()
        self._order = order
        self._index = {vid: i for i, (_, vid) in enumerate(order)}

    # -- structure ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    @property
    def vids(self) -> list[int]:
        return [vid for _, vid in self._order]

    def label(self, vid: int) -> float:
        return self.labels[vid]

    def succ(self, vid: int) -> int:
        i = self._index[vid]
        return self._order[(i + 1) % len(self._order)][1]

    def pred(self, vid: int) -> int:
        i = self._index[vid]
        return self._order[i - 1][1]

    def min_vid(self) -> int:
        """The globally leftmost virtual node — the anchor (Section III)."""
        return self._order[0][1]

    # -- ownership ------------------------------------------------------------
    def owner_of(self, point: float) -> int:
        """Virtual node responsible for ``point``: the one owning
        ``[v, succ(v))``; points left of the minimum label wrap to the
        maximum node (Section II-B)."""
        if not 0.0 <= point < 1.0:
            raise ValueError(f"point must be in [0, 1), got {point}")
        i = bisect_right(self._order, (point, float("inf")))
        if i == 0:
            return self._order[-1][1]
        return self._order[i - 1][1]
