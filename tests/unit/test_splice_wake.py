"""LEAVE-splice wake contract: a mid-wave splice pushes readiness.

When a LEAVE splices a node out of the cycle mid-wave, the nodes that
were (or just became) its aggregation parents cannot observe the change
through their own state — the splice must *push* a re-check.  Three
edges carry that push, and each must hold on every runtime (sync,
async, net) with no sweep (the simulators have none; the net runtime's
is turned off here), so the push is the only clock:

* ``A_SET_NEIGH`` (the splice rewires an integrated node): wakes both
  new neighbours, whose child sets just changed;
* ``A_SET_PRED`` (the splice rewires the segment's final successor):
  wakes the new predecessor;
* the zombie exit (``_maybe_zombie_exit``): removes the actor behind a
  forwarding address and wakes the departed node's former parent
  candidates — its predecessor and the same-process fallback parent
  from ``_parent_vid``'s chain.

Regression context: the PR-5 fuzzer stalls were liveness losses across
LEAVE splices (see DESIGN.md, "Wave liveness across splices").  The
promoted traces under tests/traces/ replay the full choreography; these
tests pin the wake edges one by one so a refactor cannot silently drop
one and re-open the family.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.actions import A_SET_NEIGH, A_SET_PRED, A_WAKE
from repro.core.membership import EpochState
from repro.core.protocol import ClusterContext, Node
from repro.core.structures import get_structure
from repro.net.runtime import NetRuntime
from repro.overlay.ldb import MIDDLE, RIGHT
from repro.sim.async_runner import AsyncRunner
from repro.sim.process import Actor
from repro.sim.sync_runner import SyncRunner


class _Recorder(Actor):
    """A neighbour stand-in that counts pushed TIMEOUTs."""

    def __init__(self, aid, runtime):
        super().__init__(aid, runtime)
        self.timeouts = 0
        self.seen = []

    def handle(self, action, payload):
        self.seen.append((action, payload))

    def timeout(self):
        self.timeouts += 1


def _node(ctx, vid, pred_vid=-1, succ_vid=-1):
    return Node(
        ctx, vid, label=0.5, pred_vid=pred_vid, pred_label=0.1,
        succ_vid=succ_vid, succ_label=0.9,
    )


def _acked_epoch():
    """An epoch whose acknowledgement duties are over."""
    epoch = EpochState(1)
    epoch.local_done = epoch.acked = True
    return epoch


def _run(engine, rounds=6):
    if isinstance(engine, SyncRunner):
        for _ in range(rounds):
            engine.step()
    else:
        engine.run_for(50.0)


@pytest.fixture(params=[SyncRunner, AsyncRunner], ids=["sync", "async"])
def engine(request):
    eng = request.param()  # no sweep: pushes are the clock
    yield eng
    eng.close()


class TestSimEngines:
    def test_set_neigh_wakes_both_new_neighbours(self, engine):
        ctx = ClusterContext(engine, "t", 1, get_structure("queue"))
        pred, succ = _Recorder(2, engine), _Recorder(7, engine)
        engine.add_actor(pred)
        engine.add_actor(succ)
        node = _node(ctx, vid=4)
        engine.add_actor(node)
        engine.send(4, A_SET_NEIGH, (2, 0.2, 7, 0.8, False))
        _run(engine)
        assert node.pred_vid == 2 and node.succ_vid == 7
        assert pred.timeouts >= 1, "new predecessor never re-checked"
        assert succ.timeouts >= 1, "new successor never re-checked"

    def test_set_pred_wakes_the_new_predecessor(self, engine):
        ctx = ClusterContext(engine, "t", 1, get_structure("queue"))
        pred = _Recorder(2, engine)
        engine.add_actor(pred)
        node = _node(ctx, vid=4)
        engine.add_actor(node)
        engine.send(4, A_SET_PRED, (2, 0.2))
        _run(engine)
        assert node.pred_vid == 2
        assert pred.timeouts >= 1, "new predecessor never re-checked"

    def test_zombie_exit_wakes_former_parent_candidates(self, engine):
        """A departing RIGHT node's plausible wave parents are its
        predecessor and the same-process MIDDLE (the ``_parent_vid``
        fallback chain); both must be woken when the zombie leaves, or a
        parent mid-wait never notices: nothing polls."""
        ctx = ClusterContext(engine, "t", 1, get_structure("queue"))
        leaver_vid = 1 * 3 + RIGHT
        fallback_vid = 1 * 3 + MIDDLE
        pred = _Recorder(2, engine)
        fallback = _Recorder(fallback_vid, engine)
        resp = _Recorder(9, engine)
        for actor in (pred, fallback, resp):
            engine.add_actor(actor)
        leaver = _node(ctx, vid=leaver_vid, pred_vid=2, succ_vid=9)
        engine.add_actor(leaver)
        leaver.replaced = leaver.dumped = True
        leaver.epoch = _acked_epoch()
        leaver.resp_vid = 9
        leaver._maybe_zombie_exit()
        assert leaver.departed
        assert engine.resolve(leaver_vid) == 9  # forwarding zombie
        _run(engine)
        assert pred.timeouts >= 1, "predecessor never re-checked"
        assert fallback.timeouts >= 1, "fallback parent never re-checked"


class TestNetRuntime:
    def test_splice_wakes_local_neighbours_without_the_sweep(self):
        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: None,
            timeout_lag=0.001,
            sweep_seconds=0,
        )

        async def scenario():
            runtime.start(asyncio.get_running_loop())
            ctx = ClusterContext(runtime, "t", 1, get_structure("queue"))
            pred, succ = _Recorder(2, runtime), _Recorder(7, runtime)
            runtime.add_actor(pred)
            runtime.add_actor(succ)
            node = _node(ctx, vid=4)
            runtime.add_actor(node)
            runtime.send(4, A_SET_NEIGH, (2, 0.2, 7, 0.8, False))
            await asyncio.sleep(0.05)
            assert node.pred_vid == 2 and node.succ_vid == 7
            assert pred.timeouts >= 1 and succ.timeouts >= 1
            runtime.close()

        asyncio.run(scenario())

    def test_splice_ships_wake_frames_to_remote_neighbours(self):
        """Neighbours living on another host get the same push as an
        ``A_WAKE`` frame — the remote form of ``Runtime.wake``."""
        shipped = []
        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: shipped.append(
                (dest, action)
            )
        )

        async def scenario():
            runtime.start(asyncio.get_running_loop())
            ctx = ClusterContext(runtime, "t", 1, get_structure("queue"))
            node = _node(ctx, vid=4)
            runtime.add_actor(node)
            node._on_set_neigh((2, 0.2, 7, 0.8, False))
            assert (2, A_WAKE) in shipped and (7, A_WAKE) in shipped
            node._on_set_pred((11, 0.05))
            assert (11, A_WAKE) in shipped
            runtime.close()

        asyncio.run(scenario())

    def test_zombie_exit_ships_wakes_and_leaves_a_forwarding_address(self):
        shipped = []
        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: shipped.append(
                (dest, action)
            )
        )
        ctx = ClusterContext(runtime, "t", 1, get_structure("queue"))
        leaver_vid = 1 * 3 + RIGHT
        leaver = _node(ctx, vid=leaver_vid, pred_vid=2, succ_vid=9)
        runtime.add_actor(leaver)
        leaver.replaced = leaver.dumped = True
        leaver.epoch = _acked_epoch()
        leaver.resp_vid = 9
        leaver._maybe_zombie_exit()
        assert leaver.departed
        assert runtime.resolve(leaver_vid) == 9
        assert (2, A_WAKE) in shipped, "predecessor never pushed"
        assert (1 * 3 + MIDDLE, A_WAKE) in shipped, "fallback parent never pushed"
        runtime.close()
