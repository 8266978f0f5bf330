"""Aggregation tree rules (Section III-B).

The tree is implicit in the LDB: every node's parent is its leftmost
neighbour, so following parent pointers strictly decreases labels and all
paths end at the globally leftmost virtual node — the *anchor*.

* parent of a middle node is its own left node ``l(v)``,
* parent of a left node is its cycle predecessor,
* parent of a right node is its own middle node ``m(v)``.

Children mirror this: a node's next same-process virtual node is a child,
plus its cycle successor when that successor is a *left* node (a right
node can never have a left successor because right labels are ``>= 0.5``
and left labels ``< 0.5``).

These rules only use local information (own kind/pid and the kind of the
cycle successor), which is exactly what lets protocol nodes maintain the
tree through churn without global coordination.  The same functions are
used by the live protocol and by whole-topology validation in tests.
"""

from __future__ import annotations

from typing import Callable

from repro.overlay.ldb import LEFT, MIDDLE, RIGHT, LdbTopology, kind_of, pid_of, vid_of

__all__ = [
    "children_local",
    "children_of",
    "cross_host_tree",
    "is_anchor_local",
    "parent_local",
    "parent_of",
    "tree_height",
]


def parent_local(vid: int, pred_vid: int) -> int:
    """Parent in the aggregation tree from local info (Section III-B)."""
    kind = kind_of(vid)
    pid = pid_of(vid)
    if kind == MIDDLE:
        return vid_of(pid, LEFT)
    if kind == LEFT:
        return pred_vid
    return vid_of(pid, MIDDLE)


def children_local(vid: int, succ_vid: int) -> tuple[int, ...]:
    """Children in the aggregation tree from local info (Section III-B)."""
    kind = kind_of(vid)
    pid = pid_of(vid)
    if kind == RIGHT:
        return ()
    own_child = vid_of(pid, MIDDLE) if kind == LEFT else vid_of(pid, RIGHT)
    if kind_of(succ_vid) == LEFT and succ_vid != vid:
        return (own_child, succ_vid)
    return (own_child,)


def is_anchor_local(vid: int, label: float, pred_label: float) -> bool:
    """A node is the anchor iff it is leftmost: its predecessor wraps."""
    return kind_of(vid) == LEFT and pred_label > label


# -- whole-topology views (tests / bootstrap) --------------------------------


def parent_of(topology: LdbTopology, vid: int) -> int | None:
    """Parent on a static snapshot; ``None`` for the anchor."""
    if vid == topology.min_vid():
        return None
    return parent_local(vid, topology.pred(vid))


def children_of(topology: LdbTopology, vid: int) -> tuple[int, ...]:
    children = children_local(vid, topology.succ(vid))
    # the anchor's successor rule still applies, but the anchor itself is
    # nobody's child: drop a wrap pointing back at the minimum.
    return tuple(c for c in children if c != topology.min_vid())


def tree_height(topology: LdbTopology) -> int:
    """Height of the aggregation tree (Corollary 6: O(log n) w.h.p.)."""
    depth: dict[int, int] = {topology.min_vid(): 0}

    def depth_of(vid: int) -> int:
        trail = []
        while vid not in depth:
            trail.append(vid)
            parent = parent_of(topology, vid)
            assert parent is not None
            vid = parent
        base = depth[vid]
        for i, node in enumerate(reversed(trail), start=1):
            depth[node] = base + i
        return depth[trail[0]] if trail else base

    return max(depth_of(vid) for vid in topology.vids)


def cross_host_tree(
    topology: LdbTopology, host_of: Callable[[int], int | None]
) -> tuple[int, int]:
    """``(edges, depth)`` of the tree's host crossings when ``host_of``
    names each pid's host: the tree edges whose ends sit on different
    hosts, and the most of them on one path to the anchor."""
    crossings = {topology.min_vid(): 0}
    edges = 0
    # label order: a parent's label is smaller, so it is counted first
    for vid in topology.vids[1:]:
        parent = parent_local(vid, topology.pred(vid))
        cross = host_of(pid_of(vid)) != host_of(pid_of(parent))
        edges += cross
        crossings[vid] = crossings[parent] + cross
    return edges, max(crossings.values())
