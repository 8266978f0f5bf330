"""The wave plane, one node at a time (no cluster, nothing scheduled).

``Node.flight`` is ``None`` or one :class:`~repro.core.protocol.Flight`
— Algorithm 1's sent batch ``v.B`` — built whole when the node fires,
taken whole by the SERVE or the requeue that ends it, never changed in
between.  These tests drive ``test_epoch``'s single node through the
four places it can be relative to a wave — *idle* (nothing sent, nothing
awaited), *waiting* (a child's batch is missing), *in flight*, and *in
flight and anchor* (``ANCHOR_XFER`` reached a node whose batch was
already riding up) — and through the two liveness-catalog entries of
DESIGN.md that live on that last state: the transferred anchor that may
not fire, and acks on a cyclic wave.
"""

from __future__ import annotations

import pytest

from repro.core.actions import (
    A_ACK_UP,
    A_AGG,
    A_ANCHOR_XFER,
    A_CHASE,
    A_DEPART_REQ,
    A_REQUEUE,
    A_SERVE,
    A_SET_NEIGH,
)
from repro.core.protocol import Flight
from repro.core.requests import INSERT, OpRecord
from repro.core.structures import get_structure
from repro.telemetry import Tracer

from tests.unit.test_epoch import CHILD, NODE, PRED, RESP, SUCC, E, _World

STATES = ("idle", "waiting", "in flight", "in flight and anchor")


class _WaveWorld(_World):
    def __init__(self):
        super().__init__()
        # what the rest of the tree would do with this node's batches
        self.upstream = get_structure("queue").anchor_state(1)

    def op(self) -> OpRecord:
        """Buffer one ENQUEUE at the node."""
        ctx = self.node.ctx
        n = len(ctx.records)
        rec = OpRecord(n, self.node.pid, n, INSERT, "x", self.engine.now)
        ctx.records.append(rec)
        self.node.local_op(rec)
        return rec

    def child_batch(self, vid: int = CHILD, runs: tuple = (1,)) -> None:
        """A tree batch of ``vid`` lands here (joins this wave as an extra)."""
        self.node.handle(A_AGG, (vid, runs, 0, 0, False))

    def fire(self) -> tuple:
        """TIMEOUT; the ``A_AGG`` payload PRED got, if the node fired."""
        self.node.timeout()
        sent = [m for m in self.delivered()[PRED] if m[0] == A_AGG]
        return sent[0][1] if sent else None

    def serve(self, stamp: int = 0) -> None:
        """The SERVE for the batch in flight, as the tree would answer it."""
        runs = [0]
        for _src, sub in self.node.flight.plan:
            runs[0] += sum(sub)
        assigns = tuple(self.upstream.assign(runs)) if runs[0] else ()
        self.node.handle(A_SERVE, (assigns, stamp))

    def make_anchor(self) -> None:
        state = get_structure("queue").anchor_state(1).export()
        self.node.handle(A_ANCHOR_XFER, (state, 0))

    def put_wave(self, state: str) -> None:
        node = self.node
        if state == "waiting":
            node.relay_children.append(CHILD)
            assert self.fire() is None and node.wait_since is not None
        elif state != "idle":
            assert self.fire() is not None
            if state == "in flight and anchor":
                self.make_anchor()
        self.delivered()


@pytest.fixture
def world():
    made = _WaveWorld()
    yield made
    made.engine.close()


# -- one object, built whole, taken whole -------------------------------------


@pytest.mark.parametrize("state", STATES)
def test_in_flight_is_one_test(world, state):
    world.put_wave(state)
    assert (world.node.flight is not None) == state.startswith("in flight")


def test_the_fire_builds_the_flight_whole(world):
    node = world.node
    rec = world.op()
    node.pending_joins = 1
    world.child_batch(CHILD, (2,))
    sent = world.fire()
    assert sent == (NODE, (3,), 1, 0, False)
    assert {name: getattr(node.flight, name) for name in Flight.__slots__} == {
        "plan": [(-1, [1]), (CHILD, [2])],
        "records": [rec],
        "counts": (1, 0),
        "sent_to": PRED,
        "fired_at": None,  # no tracer attached
    }
    assert (node.pending_joins, node.pending_leaves) == (0, 0)


def test_the_serve_takes_the_flight_whole(world):
    rec = world.op()
    world.child_batch(CHILD, (2,))
    world.fire()
    world.serve()
    assert world.node.flight is None
    assert rec.value == 1  # stage 4 placed the flight's own records
    served = [m for m in world.delivered()[CHILD] if m[0] == A_SERVE]
    assert served == [(A_SERVE, (((1, 2, 2),), 0))]  # positions 1-2, value 2


@pytest.mark.parametrize("state", ("idle", "waiting"))
def test_a_serve_with_no_flight_raises(world, state):
    world.put_wave(state)
    with pytest.raises(RuntimeError, match="SERVE without a batch in flight"):
        world.node.handle(A_SERVE, ((), 0))


def test_an_anchor_never_occupies_the_slot(world):
    world.make_anchor()
    world.delivered()
    world.op()
    world.child_batch()
    world.node.timeout()  # the wave completes inside the fire
    assert world.node.flight is None
    assert [m[0] for m in world.delivered()[CHILD]] == [A_SERVE]
    with pytest.raises(RuntimeError, match="SERVE without a batch in flight"):
        world.node.handle(A_SERVE, ((), 0))


# -- the requeue --------------------------------------------------------------


def test_a_requeue_returns_records_and_counters(world):
    node = world.node
    first = world.op()
    node.pending_joins, node.pending_leaves = 1, 2
    world.child_batch()
    world.fire()
    second = world.op()  # buffered while the first rides
    node.pending_leaves = 1
    node.handle(A_REQUEUE, (0,))
    assert node.flight is None
    assert (node.pending_joins, node.pending_leaves) == (1, 3)
    assert node.buffer.take() == ([2], [first, second])
    # the sub-batch it had combined is un-sent the same way
    assert (A_REQUEUE, (0,)) in world.delivered()[CHILD]


@pytest.mark.parametrize("state", ("idle", "waiting"))
def test_a_requeue_with_no_flight_requeues_nothing(world, state):
    world.put_wave(state)
    rec = world.op()
    world.node.handle(A_REQUEUE, (0,))
    assert world.node.buffer.take() == ([1], [rec])


def test_a_splice_requeues_only_a_batch_in_flight(world):
    node = world.node
    splice = (PRED, 0.1, SUCC, 0.9, True)
    node.handle(A_SET_NEIGH, splice)  # idle: nothing to un-send
    assert node.flight is None
    rec = world.op()
    world.fire()
    node.handle(A_SET_NEIGH, splice)
    assert node.flight is None and node.buffer.take() == ([1], [rec])


# -- CHASE --------------------------------------------------------------------


def test_chase_climbs_from_a_node_that_combined_the_batch_and_is_in_flight(world):
    world.child_batch()
    world.fire()
    world.node.handle(A_CHASE, (CHILD, E))
    assert world.delivered()[PRED] == [(A_CHASE, (NODE, E))]


@pytest.mark.parametrize("state", STATES)
def test_chase_stops_where_the_batch_was_not_combined(world, state):
    world.put_wave(state)
    world.node.handle(A_CHASE, (SUCC, E))
    assert not world.membership_traffic()


def test_chase_stops_at_a_node_that_entered_an_epoch(world):
    world.child_batch()
    world.fire()
    world.make_anchor()
    world.node.pending_joins = 1
    world.node.timeout()  # opens epoch 1 over the flight still up
    assert world.node.epoch is not None and world.node.flight is not None
    world.membership_traffic()
    world.node.handle(A_CHASE, (CHILD, 1))
    assert not world.membership_traffic()


@pytest.mark.parametrize("state", STATES)
def test_a_depart_req_chases_only_a_batch_in_flight(world, state):
    world.put_wave(state)
    world.node.handle(A_DEPART_REQ, (RESP, E))
    chased = (A_CHASE, (NODE, E)) in world.delivered()[PRED]
    assert chased == state.startswith("in flight")
    assert (world.node.epoch is None) == chased


# -- the flagged serve --------------------------------------------------------


def test_a_flagged_serve_hands_the_flights_sent_to_on_as_pold(world):
    node = world.node
    world.fire()
    # a splice moved the tree parent while the batch was up: the ack
    # still goes to whoever holds the batch
    node.pred_vid = SUCC
    world.serve(E)
    assert node.epoch.number == E and node.epoch.pold == PRED
    assert (A_ACK_UP, (NODE,)) in world.delivered()[PRED]


def test_an_anchors_flagged_wave_has_no_pold(world):
    world.make_anchor()
    world.delivered()
    world.node.pending_joins = 1
    world.node.timeout()
    epoch = world.node.epoch
    assert epoch.number == 1 and epoch.pold is None


# -- catalog: the transferred anchor that may not fire ------------------------


def test_a_node_in_flight_does_not_fire(world):
    world.put_wave("in flight")
    sent = world.node.flight
    world.child_batch()
    assert world.fire() is None
    assert world.node.flight is sent and CHILD in world.node.child_batches


def test_a_transferred_anchor_fires_over_its_own_flight(world):
    node = world.node
    rec = world.op()
    world.fire()
    sent = node.flight
    world.make_anchor()
    world.delivered()
    # everyone below is in flight towards this node: it must consume
    late = world.op()
    world.child_batch()
    node.timeout()
    assert [m[0] for m in world.delivered()[CHILD]] == [A_SERVE]
    assert late.value == 1 and rec.value is None
    # ... and the batch it sent up before the transfer is where it was
    assert node.flight is sent
    world.serve()
    assert node.flight is None and rec.value == 1


# -- catalog: acks on a cyclic wave -------------------------------------------


def test_a_serve_for_an_epoch_already_entered_is_acked_along_its_edge(world):
    """The transferred anchor opened epoch 1 with its own wave; the serve
    cascade then drains the cycle and serves the batch it had sent up
    before — its server waits for an ack anchors never send."""
    node = world.node
    world.fire()
    world.make_anchor()
    world.delivered()
    node.pending_joins = 1
    node.timeout()
    opened = node.epoch
    assert opened.number == 1 and opened.pold is None
    world.delivered()
    world.serve(1)
    assert node.epoch is opened and node.flight is None
    assert (A_ACK_UP, (NODE,)) in world.delivered()[PRED]


# -- telemetry: each batch keeps its own fire time ----------------------------


def _wave_durations(world: _WaveWorld) -> list:
    stat = world.engine.metrics.stats.get("wave_duration")
    return [] if stat is None else stat.samples


@pytest.mark.parametrize("anchor_wave", ("empty", "non-empty"))
def test_one_wave_duration_sample_per_batch_each_from_its_own_fire(world, anchor_wave):
    """Driven by messages alone, so it runs on the pre-``Flight`` node
    too — where the transferred anchor's fire overwrote the earlier
    batch's stamp (non-empty wave: a 0-round sample, and none for the
    earlier batch) or consumed it (empty wave: the earlier batch's age
    booked to the anchor's wave)."""
    node, engine = world.node, world.engine
    engine.metrics.store_samples = True
    node.ctx.tracer = Tracer(0.0, clock=lambda: engine.now)
    world.op()
    fired = engine.now
    sent = world.fire()
    world.delivered()
    world.make_anchor()
    if anchor_wave == "non-empty":
        world.op()
    node.timeout()  # the transferred anchor fires over its own batch
    own = [0.0] if anchor_wave == "non-empty" else []  # done as it fires
    assert _wave_durations(world) == own
    for _ in range(3):
        world.delivered()  # (an anchor keeps firing: empty waves, no samples)
    node.handle(A_SERVE, (tuple(world.upstream.assign(sent[1])), 0))
    assert engine.now - fired == 5
    assert _wave_durations(world) == own + [5]
