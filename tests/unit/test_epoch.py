"""The epoch plane, one node at a time (no cluster, nothing scheduled).

``Node.epoch`` is ``None`` outside an update and one
:class:`~repro.core.membership.EpochState` inside it; every epoch stamp
a message carries is judged by ``Node._admit``.  These tests drive a
single node, surrounded by recording stand-ins, through the five places
it can be relative to an epoch — never entered (*none*), served the
flagged wave (*active*), bounced into it (*passive*), timed out of it
(*released*), seen its end (*finished*) — and through the four
liveness-catalog entries of DESIGN.md that were "a per-epoch flag read
in the wrong epoch": passive re-entry, the zombie echo (and its sibling
the grant echo), the swallowed flood, the grant that arrives last.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import (
    A_ACK_UP,
    A_AGG,
    A_ANCHOR_XFER,
    A_CHASE,
    A_DEPART_COMMIT,
    A_DEPART_DUMP,
    A_DEPART_META,
    A_DEPART_REQ,
    A_JOIN_DEFER,
    A_LEAVE_GRANT,
    A_REQUEUE,
    A_SERVE,
    A_UPDATE_OVER,
)
from repro.core.membership import CURRENT, EARLY, STALE, EpochState
from repro.core.protocol import ClusterContext, Flight
from repro.core.structures import get_structure
from repro.sim.sync_runner import SyncRunner

from tests.unit.test_splice_wake import _node, _Recorder

NODE, PRED, SUCC, RESP, CHILD = 4, 2, 7, 9, 10
STATES = ("none", "active", "passive", "released", "finished")
E = 5  # the epoch the states below are relative to


class _World:
    """One node whose every correspondent only records."""

    def __init__(self):
        self.engine = SyncRunner()
        ctx = ClusterContext(self.engine, "t", 1, get_structure("queue"))
        self.peers = {
            vid: _Recorder(vid, self.engine) for vid in (PRED, SUCC, RESP, CHILD)
        }
        for peer in self.peers.values():
            self.engine.add_actor(peer)
        self.node = _node(ctx, NODE, pred_vid=PRED, succ_vid=SUCC)
        self.engine.add_actor(self.node)

    def put(self, state: str, number: int = E) -> None:
        node = self.node
        if state == "active":
            # CHILD was served too and has not acknowledged yet; PRED
            # served this node, so that is where its acknowledgement goes
            node._on_flagged_serve(number, [CHILD], PRED)
        elif state != "none":
            node._enter_epoch_passively(number)
        if state == "released":
            node.epoch.release_at = self.engine.now
            node._membership_tick()
        elif state == "finished":
            node._finish_update(number)
        # what getting there sent is not under test (a node that just
        # finished fires its next batch one step later)
        self.delivered()
        self.delivered()

    def delivered(self) -> dict[int, list]:
        """Deliver everything sent so far; what each peer got since the
        last call."""
        self.engine.step()
        out = {}
        for vid, peer in self.peers.items():
            out[vid], peer.seen = peer.seen, []
        return out

    def membership_traffic(self) -> list:
        return [
            message
            for got in self.delivered().values()
            for message in got
            if message[0] != A_AGG
        ]

    def serve(self, stamp: int) -> None:
        """A flagged SERVE for an (empty) batch this node sent to PRED."""
        self.node.flight = Flight([(-1, [])], [], (0, 0), PRED, None)
        self.node.handle(A_SERVE, ((), stamp))

    def facts(self) -> tuple:
        node = self.node
        return (
            _fields(node.epoch),
            node.update_epoch,
            node.finished_epoch,
            node.depart_epoch,
            node.resp_vid,
            node.replaced,
        )


def _fields(epoch: EpochState | None):
    if epoch is None:
        return None
    return {name: getattr(epoch, name) for name in EpochState.__slots__}


@pytest.fixture
def world():
    made = _World()
    yield made
    made.engine.close()


# -- the admission rule -------------------------------------------------------

VERDICTS = {
    "none": {0: STALE, E - 1: EARLY, E: EARLY, E + 1: EARLY},
    "active": {0: STALE, E - 1: STALE, E: CURRENT, E + 1: EARLY},
    "passive": {0: STALE, E - 1: STALE, E: CURRENT, E + 1: EARLY},
    "released": {0: STALE, E - 1: STALE, E: EARLY, E + 1: EARLY},
    "finished": {0: STALE, E - 1: STALE, E: STALE, E + 1: EARLY},
}


@pytest.mark.parametrize("state", STATES)
def test_admission_verdicts(world, state):
    world.put(state)
    got = {stamp: world.node._admit(stamp) for stamp in VERDICTS[state]}
    assert got == VERDICTS[state]
    assert (world.node.epoch is not None) == (state in ("active", "passive"))


#: the stamped messages whose handler asks admission, as (name, deliver)
JUDGED = {
    "DEPART_REQ": lambda w, stamp: w.node.handle(A_DEPART_REQ, (RESP, stamp)),
    "REQUEUE": lambda w, stamp: w.node.handle(A_REQUEUE, (stamp,)),
    "UPDATE_OVER": lambda w, stamp: w.node.handle(A_UPDATE_OVER, (stamp, 0)),
    "SERVE": lambda w, stamp: w.serve(stamp),
}


@pytest.mark.parametrize("state", STATES[1:])
@pytest.mark.parametrize("name", JUDGED)
def test_a_stale_stamp_changes_nothing(world, name, state):
    world.put(state)
    before = world.facts()
    JUDGED[name](world, E - 1)
    assert world.facts() == before
    # (a stale flagged SERVE is an ordinary one: the node fires again)
    assert not world.membership_traffic()


@pytest.mark.parametrize("state", ("none", "released"))
@pytest.mark.parametrize("name", JUDGED)
def test_an_early_stamp_opens_or_closes_the_epoch(world, name, state):
    world.put(state)
    JUDGED[name](world, E)
    node = world.node
    if name == "UPDATE_OVER":
        assert node.epoch is None and node.finished_epoch == E
    else:
        assert node.epoch.number == E and node.update_epoch == E
        # only a flagged SERVE makes an active member
        assert (node.epoch.release_at is None) == (name == "SERVE")
    if name == "DEPART_REQ":
        assert (node.resp_vid, node.depart_epoch) == (RESP, E)


@pytest.mark.parametrize("state", ("active", "passive"))
def test_a_current_stamp_finds_the_node_already_there(world, state):
    world.put(state)
    opened = world.node.epoch
    world.node.handle(A_REQUEUE, (E,))
    assert world.node.epoch is opened  # not re-entered
    world.serve(E)
    assert world.node.epoch is opened
    # served twice in one epoch (a cyclic wave): the extra edge is
    # acknowledged at once, it carries no duty
    assert (A_ACK_UP, (NODE,)) in world.delivered()[PRED]
    world.node.handle(A_DEPART_REQ, (RESP, E))
    assert world.node.epoch is opened and opened.meta_sent
    assert [a for a, _ in world.delivered()[RESP]] == [A_DEPART_META]
    world.node.handle(A_UPDATE_OVER, (E, 0))
    assert world.node.epoch is None and world.node.finished_epoch == E


def test_unjudged_stamps_travel_unchanged(world):
    """CHASE hands its stamp to the REQUEUE it provokes (judged where
    that lands); ANCHOR_XFER comes from the anchor, which defines the
    epoch — neither asks admission."""
    world.put("finished")
    node = world.node
    node.child_batches[CHILD] = ([], 0, 0, False)
    node.handle(A_CHASE, (CHILD, E - 1))
    assert world.delivered()[CHILD] == [(A_REQUEUE, (E - 1,))]
    anchor_state = get_structure("queue").anchor_state(1).export()
    node.handle(A_ANCHOR_XFER, (anchor_state, E + 3))
    assert node.is_anchor and node.finished_epoch == E + 3


# -- catalog: passive epoch re-entry ------------------------------------------


def test_a_released_entrant_reenters_the_running_epoch_only(world):
    world.put("released")
    assert world.node.epoch is None
    world.node.handle(A_REQUEUE, (E,))  # bounced again: the epoch still runs
    assert world.node.epoch.number == E
    assert world.node.epoch.release_at is not None
    world.node.handle(A_UPDATE_OVER, (E, 0))
    world.node.handle(A_REQUEUE, (E,))  # a bounce that raced the end
    assert world.node.epoch is None


def test_a_node_that_sent_its_meta_is_not_released(world):
    """Departing nodes leave through META/COMMIT/DUMP; releasing one on
    the grace timer would drop the record that its META is out."""
    world.put("passive")
    node = world.node
    node.handle(A_DEPART_REQ, (RESP, E))  # overtook the LEAVE_GRANT
    assert node.epoch.meta_sent and not node.replaced
    node.epoch.release_at = world.engine.now
    node._membership_tick()
    assert node.epoch is not None


# -- catalog: the swallowed flood ---------------------------------------------


@pytest.mark.parametrize("state", STATES)
def test_update_over_is_relayed_exactly_once(world, state):
    world.put(state)
    for _ in range(3):
        world.node.handle(A_UPDATE_OVER, (E, 0))
    got = world.delivered()
    expected = 0 if state == "finished" else 1
    for neighbour in (PRED, SUCC):
        floods = [m for m in got[neighbour] if m[0] == A_UPDATE_OVER]
        assert len(floods) == expected, (state, neighbour)


# -- catalog: the zombie echo -------------------------------------------------


@pytest.mark.parametrize("state", ("none", "active"))
def test_a_self_addressed_depart_req_leaves_no_state(world, state):
    world.put(state)
    before = world.facts()
    world.node.handle(A_DEPART_REQ, (NODE, E))
    assert world.facts() == before
    assert not world.membership_traffic()
    # ... so the genuine request, when this node leaves, is answered
    world.node.handle(A_LEAVE_GRANT, (RESP,))
    world.node.handle(A_DEPART_REQ, (RESP, E))
    assert [a for a, _ in world.delivered()[RESP]] == [A_DEPART_META]


@pytest.mark.parametrize("state", ("none", "active"))
def test_a_self_addressed_leave_grant_leaves_no_state(world, state):
    """The grant echo: a granter re-sends LEAVE_GRANT on every retried
    LEAVE_REQ; one that lands after the requester departed is forwarded
    by its zombie to the responsible node — the granter itself."""
    world.put(state)
    before = world.facts()
    world.node.handle(A_LEAVE_GRANT, (NODE,))
    assert world.facts() == before
    assert not world.membership_traffic()
    # ... so this node's own leave, when it comes, is still grantable
    world.node.handle(A_LEAVE_GRANT, (RESP,))
    assert world.node.replaced and world.node.resp_vid == RESP


def test_a_replacement_that_stays_answers_the_next_epochs_request(world):
    node = world.node
    node.handle(A_LEAVE_GRANT, (RESP,))
    world.put("active")
    node.handle(A_DEPART_REQ, (RESP, E))
    node.handle(A_DEPART_REQ, (RESP, E))  # the retry cadence
    assert [a for a, _ in world.delivered()[RESP]] == [A_DEPART_META]
    node.handle(A_UPDATE_OVER, (E, 0))  # never committed: stays, and
    world.delivered()  # fires its next batch
    node.handle(A_DEPART_REQ, (RESP, E + 1))
    # that batch missed the flagged wave: chased, bounced back, and the
    # node joins the epoch passively
    assert (A_CHASE, (NODE, E + 1)) in world.delivered()[PRED]
    node.handle(A_REQUEUE, (E + 1,))
    assert node.epoch.number == E + 1 and node.epoch.meta_sent
    assert [a for a, _ in world.delivered()[RESP]] == [A_DEPART_META]


def test_a_request_for_the_next_epoch_waits_for_it(world):
    """DEPART_REQ(e+1) can overtake UPDATE_OVER(e).  Answered in epoch
    e, the META's record would end with e and the COMMIT would find the
    node outside any epoch, unable ever to exit (fuzz cell seed 4041,
    heap/async/default stalled on exactly this)."""
    node = world.node
    node.handle(A_LEAVE_GRANT, (RESP,))
    world.put("active")
    node.handle(A_DEPART_REQ, (RESP, E + 1))
    assert node.depart_epoch == E + 1 and not node.epoch.meta_sent
    assert not world.delivered()[RESP]
    node.handle(A_UPDATE_OVER, (E, 0))
    world.serve(E + 1)
    assert node.epoch.number == E + 1 and node.epoch.meta_sent
    assert [a for a, _ in world.delivered()[RESP]] == [A_DEPART_META]
    node.handle(A_DEPART_COMMIT, ())
    assert node.departed and world.engine.resolve(NODE) == RESP


@pytest.mark.parametrize("state", ("none", "active", "passive"))
def test_an_unawaited_depart_meta_is_dropped(world, state):
    """Only a DEPART_REQ of the open epoch makes a META awaited; any
    other must not splice this node's pending joiners mid-epoch."""
    world.put(state)
    node = world.node
    node.joiners.append((0.1, 0.6, 40))
    node.handle(A_DEPART_META, (CHILD, (), (), SUCC, 0.9))
    assert node.joiners and node.succ_vid == SUCC
    assert not world.membership_traffic()


# -- catalog: the grant that arrives last -------------------------------------


def test_a_grant_behind_its_own_departure_exits_the_zombie(world):
    node = world.node
    node._on_flagged_serve(E, [], PRED)  # nothing owed: acknowledges at once
    assert node.epoch.acked
    node.handle(A_DEPART_REQ, (RESP, E))
    node.handle(A_DEPART_COMMIT, ())
    got = world.delivered()
    assert [a for a, _ in got[RESP]] == [A_DEPART_META, A_DEPART_DUMP]
    assert node.dumped and not node.departed  # every check refused so far
    node.handle(A_LEAVE_GRANT, (RESP,))
    assert node.departed and world.engine.resolve(NODE) == RESP


# -- nothing of epoch e in epoch e+1 ------------------------------------------

_STAMPS = st.sampled_from((0, E - 1, E, E + 1))
_STEPS = st.one_of(
    st.tuples(st.just("serve"), _STAMPS.filter(bool)),
    st.tuples(st.just("requeue"), _STAMPS),
    st.tuples(st.just("depart_req"), _STAMPS.filter(bool)),
    st.tuples(st.just("update_over"), st.sampled_from((E - 1, E))),
    st.tuples(st.just("ack_up"), st.sampled_from((CHILD, SUCC))),
    st.tuples(st.just("depart_meta"), st.sampled_from((CHILD, SUCC))),
    st.tuples(st.just("join_defer"), st.just(40)),
    st.tuples(st.just("agg"), st.just(CHILD)),
    st.tuples(st.just("grace"), st.just(0)),
)


def _apply(world: _World, step: tuple) -> None:
    kind, arg = step
    node = world.node
    if kind == "serve":
        world.serve(arg)
    elif kind == "requeue":
        node.handle(A_REQUEUE, (arg,))
    elif kind == "depart_req":
        node.handle(A_DEPART_REQ, (RESP, arg))
    elif kind == "update_over":
        node.handle(A_UPDATE_OVER, (arg, 0))
    elif kind == "ack_up":
        node.handle(A_ACK_UP, (arg,))
    elif kind == "depart_meta":
        node.handle(A_DEPART_META, (arg, (), (), SUCC, 0.9))
    elif kind == "join_defer":
        node.handle(A_JOIN_DEFER, (arg, 0.7))
    elif kind == "agg":
        node.handle(A_AGG, (arg, (), 0, 0, False))
    elif node.epoch is not None and node.epoch.release_at is not None:
        node.epoch.release_at = world.engine.now
        node._membership_tick()


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEPS, max_size=12), passive=st.booleans())
def test_the_next_epoch_observes_nothing_of_this_one(steps, passive):
    used, fresh = _World(), _World()
    try:
        for step in steps:
            _apply(used, step)
        used.node._finish_update(E + 1)
        assert used.node.epoch is None
        for world in (used, fresh):
            world.delivered()
            world.node.child_batches.clear()
            if passive:
                world.node.handle(A_REQUEUE, (E + 2,))
            else:
                world.serve(E + 2)
        assert _fields(used.node.epoch) == _fields(fresh.node.epoch)
        assert _fields(used.node.epoch)["number"] == E + 2
    finally:
        used.engine.close()
        fresh.engine.close()
