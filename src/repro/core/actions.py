"""The actor message catalog: every protocol message, declared once.

One :class:`ActionSpec` row per message of the protocol (Sections III,
IV and VI of the paper), in :data:`CATALOG`, indexed by its integer
code.  Small ints keep per-message dispatch one tuple index at
simulation scale: ``Node.handle`` resolves each row's ``handler`` once,
at import, into a per-code function tuple.  The module-level ``A_*``
names are the codes, bound from the rows below; ``docs/PROTOCOL.md``
("Actor messages") is the prose table, diffed against this one.
"""

from __future__ import annotations

from typing import NamedTuple

#: ``ActionSpec.routed``: the walk ends at the on-cycle owner of the key
CYCLE = "cycle"
#: ``ActionSpec.routed``: the walk ends at the owner of the key's DHT
#: range — a pending joiner granted that range included
RANGE = "range"


class ActionSpec(NamedTuple):
    """One actor message."""

    code: int
    name: str
    #: the ``Node`` method that takes it: ``handler(payload)``, or for a
    #: routed message ``handler(key, extra)`` where the walk ends
    handler: str
    #: ``None``: sent point to point; :data:`CYCLE` or :data:`RANGE`: the
    #: payload is ``(key, bits, steps, ideal, extra)`` walking the De
    #: Bruijn overlay (Lemma 3)
    routed: str | None
    #: a tree-up stage-1 batch, which must never follow the forwarding
    #: address of a departed node (``Runtime.bounce_forwarded_batch``)
    tree_batch: bool
    #: where a traced op's req_id sits: an index into the payload — into
    #: ``extra`` for a routed message — or ``None``
    trace_req: int | None
    #: ``sender -> receiver: meaning``
    summary: str


_ROWS = (
    # -- aggregation waves (Section III) ------------------------------------
    ("A_AGG", "_on_agg", None, True, None,
     "child -> parent: combined batch (stage 1)"),
    ("A_SERVE", "_on_serve", None, False, None,
     "parent -> child: decomposed position intervals (stage 3)"),
    # -- DHT traffic (stage 4 / Section II-B) -------------------------------
    ("A_RT_PUT", "_dht_put", RANGE, False, 2,
     "requester -> key owner: routed PUT(e, k(p))"),
    ("A_RT_GET", "_dht_get", RANGE, False, 1,
     "requester -> key owner: routed GET(k(p), v)"),
    ("A_GET_REPLY", "_on_get_reply", None, False, 0,
     "DHT node -> requester: dequeued/popped element"),
    ("A_PUT_ACK", "_on_put_ack", None, False, None,
     "DHT node -> requester: PUT stored (stack stage-4 barrier)"),
    # -- membership (Section IV) --------------------------------------------
    ("A_JOIN_RT", "_grant_join", CYCLE, False, None,
     "joiner -> responsible node: routed JOIN(v)"),
    ("A_JOIN_GRANT", "_on_join_grant", None, False, None,
     "responsible node -> joiner: intro + DHT data slice"),
    ("A_SLICE_REQ", "_on_slice_req", None, False, None,
     "responsible node -> earlier joiner: hand range to newcomer"),
    ("A_SLICE", "_on_slice", None, False, None,
     "range holder -> joiner: DHT data handover"),
    ("A_LEAVE_REQ", "_on_leave_req", None, False, None,
     "leaving node -> left neighbour: may I leave?"),
    ("A_LEAVE_GRANT", "_on_leave_grant", None, False, None,
     "left neighbour -> leaving node: replacement created"),
    ("A_RESP_LEAVE", "_on_resp_leave", None, False, None,
     "replacement -> its responsible node: new grant to record"),
    ("A_SET_NEIGH", "_on_set_neigh", None, False, None,
     "splicer -> integrated node: set pred + succ"),
    ("A_SET_PRED", "_on_set_pred", None, False, None,
     "splicer -> segment's final successor: set pred"),
    ("A_DEPART_REQ", "_on_depart_req", None, False, None,
     "responsible node -> replacement: prepare to depart"),
    ("A_DEPART_META", "_on_depart_meta", None, False, None,
     "replacement -> responsible node: joiners + successor"),
    ("A_DEPART_COMMIT", "_on_depart_commit", None, False, None,
     "responsible node -> replacement: cycle spliced, dump"),
    ("A_DEPART_DUMP", "_on_depart_dump", None, False, None,
     "replacement -> responsible node: DHT data handover"),
    ("A_ABSORB", "_on_slice", None, False, None,
     "segment owner -> member: redistributed DHT data"),
    ("A_ACK_UP", "_on_ack_up", None, False, None,
     "child -> old parent: update-phase acknowledgement"),
    ("A_UPDATE_OVER", "_on_update_over", None, False, None,
     "new anchor -> everyone: update over (new tree + ring)"),
    ("A_FIND_MIN", "_on_find_min", CYCLE, False, None,
     "anchor -> owner of 0.0: routed probe for the leftmost node"),
    ("A_MIN_IS", "_on_min_is", None, False, None,
     "owner of 0.0 -> anchor: the global minimum node"),
    ("A_ANCHOR_XFER", "_on_anchor_xfer", None, False, None,
     "old anchor -> new leftmost node: anchor state transfer"),
    ("A_REQUEUE", "_on_requeue", None, False, None,
     "receiver of a stray batch -> sender: resend yourself"),
    ("A_JOIN_DEFER", "_on_join_defer", None, False, None,
     "departing zombie -> responsible node: re-route this JOIN"),
    ("A_RESP_XFER", "_on_resp_xfer", None, False, None,
     "splicer -> new pred: remaining grant chain"),
    ("A_NEW_RESP", "_on_new_resp", None, False, None,
     "splicer -> replacement: who its responsible node is now"),
    ("A_CHASE", "_on_chase", None, False, None,
     "replacement -> up the wave: find a marooned batch, bounce it back"),
    # -- event-driven waves (Runtime.wake + deadlock probe) -----------------
    ("A_WAKE", "_on_wake", None, False, None,
     "any -> node in another process: run TIMEOUT (remote Runtime.wake)"),
    ("A_NUDGE", "_on_nudge", None, False, None,
     "waiter -> along its wait graph: patience probe (origin, token)"),
)

#: Every actor message, indexed by its code.
CATALOG: tuple[ActionSpec, ...] = tuple(
    ActionSpec(code, *row) for code, row in enumerate(_ROWS)
)

# the A_* codes: A_AGG = 0, A_SERVE = 1, ... (the order of _ROWS)
globals().update({spec.name: spec.code for spec in CATALOG})

#: the codes (``CATALOG``, ``ActionSpec``, ``CYCLE`` and ``RANGE`` are
#: imported by name)
__all__ = [spec.name for spec in CATALOG]
