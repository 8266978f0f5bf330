"""The successor-child rule, and waves across hosts: wait for a remote
child only when idle.

A node's cycle successor is its tree child iff the labels say so; the
successor's own state is another process's and is never read.  Whether
the engine hosts the successor decides only how the parent waits.

Two :class:`NetRuntime` shards share one event loop and hand each other
messages through their ``send_remote`` hooks — the TCP runtime's wave
timing without sockets.  The overlay is nine virtual nodes of three
processes with hand-picked labels, so exactly one aggregation-tree edge
crosses the shard boundary::

    cycle   L2  M2  L0  L1  M0  M1  R2  R0  R1        (L2 is the anchor)
    host    a   a   a   B   a   B   a   a   B

``L0`` (the *parent*, host a) has two children: its own ``M0`` and its
cycle successor ``L1`` (the *child*, host B), which it cannot observe.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import SkueueCluster
from repro.core.cluster import spawn_nodes
from repro.core.protocol import ClusterContext, Flight, Node
from repro.core.requests import INSERT, OpRecord
from repro.core.structures import get_structure
from repro.net.runtime import NetRuntime
from repro.overlay.ldb import LEFT, MIDDLE, vid_of, virtual_label
from repro.overlay.routing import route_steps_for
from repro.verify import check_queue_history

MIDS = {2: 0.1, 0: 0.3, 1: 0.5}
HOST_A, HOST_B = (2, 0), (1,)
PARENT, CHILD = vid_of(0, LEFT), vid_of(1, LEFT)
PARENT_MIDDLE, CHILD_MIDDLE = vid_of(0, MIDDLE), vid_of(1, MIDDLE)
LAG = 0.005


class _Topology:
    """The slice of ``LdbTopology`` that ``spawn_nodes`` reads, over
    explicit middle labels."""

    def __init__(self, mids: dict[int, float]) -> None:
        self.labels = {
            vid_of(pid, kind): virtual_label(mid, kind)
            for pid, mid in mids.items()
            for kind in range(3)
        }
        self.vids = sorted(self.labels, key=self.labels.__getitem__)

    def __len__(self) -> int:
        return len(self.vids)

    def label(self, vid: int) -> float:
        return self.labels[vid]

    def succ(self, vid: int) -> int:
        return self.vids[(self.vids.index(vid) + 1) % len(self.vids)]

    def pred(self, vid: int) -> int:
        return self.vids[self.vids.index(vid) - 1]

    def min_vid(self) -> int:
        return self.vids[0]


@pytest.fixture(autouse=True)
def _undo_fire_wrapper(monkeypatch):
    """``_Deployment`` wraps ``Node._fire``; put the original back."""
    monkeypatch.setattr(Node, "_fire", Node._fire)


class _Deployment:
    """Both shards, wired.  ``fires`` records which children each wave
    of each node combined; ``on_fire`` lets a test react at the exact
    moment a node's batch leaves."""

    def __init__(self, round_seconds: float = 0.01) -> None:
        loop = asyncio.get_running_loop()
        self.records: list[OpRecord] = []
        self.errors: list[BaseException] = []
        self.fires: dict[int, list[list[int]]] = {}
        self.on_fire = None
        deployment = self

        fire = Node._fire

        def recorded_fire(node, children):
            deployment.fires.setdefault(node.vid, []).append(list(children))
            fire(node, children)
            if deployment.on_fire is not None:
                deployment.on_fire(node)

        Node._fire = recorded_fire

        topology = _Topology(MIDS)
        self.a, self.b = (
            NetRuntime(self._ship, round_seconds=round_seconds,
                       timeout_lag=LAG, sweep_seconds=0)
            for _ in range(2)
        )
        for runtime, pids in ((self.a, HOST_A), (self.b, HOST_B)):
            runtime.on_actor_error = lambda vid, exc: self.errors.append(exc)
            runtime.start(loop)
            ctx = ClusterContext(
                runtime, "remote-wait", route_steps_for(len(topology)),
                get_structure("queue"),
            )
            ctx.records = self.records  # req_id == index, as on the simulators
            spawn_nodes(ctx, topology, pids=pids)

    def _ship(self, dest: int, action: int, payload: tuple) -> None:
        other = self.b if dest in self.b.actors else self.a
        asyncio.get_running_loop().call_soon(other.deliver, dest, action, payload)

    def submit(self, middle_vid: int) -> OpRecord:
        runtime = self.a if middle_vid in self.a.actors else self.b
        pid = middle_vid // 3
        idx = sum(rec.pid == pid for rec in self.records)
        rec = OpRecord(len(self.records), pid, idx, INSERT, "x", runtime.now)
        self.records.append(rec)
        runtime.actors[middle_vid].local_op(rec)
        return rec

    def counter(self, runtime: NetRuntime, name: str) -> int:
        return runtime.metrics.counters.get(name, 0)

    async def until(self, predicate, timeout: float = 5.0) -> None:
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate():
            assert asyncio.get_running_loop().time() < deadline, "timed out"
            await asyncio.sleep(0.002)

    def close(self) -> None:
        self.a.close()
        self.b.close()
        assert not self.errors, self.errors


@pytest.mark.parametrize("runner", ["sync", "async"])
def test_the_child_set_ignores_the_successors_state(runner):
    """A successor the labels make a child is expected whatever its
    own ``pred_vid`` and flight say: those are another process's."""
    with SkueueCluster(16, seed=3, runner=runner) as cluster:
        actors = cluster.runtime.actors
        parent = next(
            node for node in actors.values()
            if node.succ_vid % 3 == LEFT and node.succ_label > node.label
        )
        child = actors[parent.succ_vid]
        elsewhere = next(vid for vid in actors if vid not in (parent.vid, child.vid))
        child.pred_vid = elsewhere
        child.flight = Flight([], [], (0, 0), elsewhere, None)
        assert child.vid in parent._aggregation_children()
        assert parent._awaited_remote_child() is None


def test_the_overlay_has_exactly_one_cross_host_tree_edge():
    async def scenario():
        d = _Deployment()
        crossing = [
            (node.vid, parent)
            for runtime in (d.a, d.b)
            for node in runtime.actors.values()
            if not node.is_anchor
            and (parent := node._parent_vid()) not in runtime.actors
        ]
        assert crossing == [(CHILD, PARENT)]
        parent = d.a.actors[PARENT]
        # the local sibling is blocked on, the remote label-child is not:
        # while idle the parent holds its batch back for it instead
        assert parent._aggregation_children() == [PARENT_MIDDLE]
        assert CHILD not in parent._aggregation_children()
        assert not parent._holds_own_ops() and not parent.child_batches
        assert parent._awaited_remote_child() == CHILD
        d.close()

    asyncio.run(scenario())


def test_idle_parent_waits_and_both_ride_one_wave():
    async def scenario():
        d = _Deployment()
        d.a.kick()
        d.b.kick()
        await d.until(lambda: len(d.fires.get(PARENT, ())) >= 5)
        # every wave of the parent carried the remote child's batch
        assert all(CHILD in children for children in d.fires[PARENT])
        assert d.counter(d.a, "wave_remote_waits") >= 1
        assert d.counter(d.a, "wave_remote_wait_expired") == 0
        assert d.counter(d.a, "wave_extras") == 0
        assert d.counter(d.a, "wave_nudge_probes") == 0
        d.close()

    asyncio.run(scenario())


def test_parent_holding_work_fires_without_the_child():
    """While the parent has requests to send it never waits for the
    remote child; the child's batch — and the request in it — rides the
    parent's next wave as an extra."""
    load = 12

    async def scenario():
        d = _Deployment()
        left = [load]
        waits_under_load = []

        def on_fire(node):
            if node.vid == PARENT_MIDDLE and left[0]:
                # keep the parent's subtree busy: its every wave has work
                left[0] -= 1
                d.submit(PARENT_MIDDLE)
                if not left[0]:
                    waits_under_load.append(d.counter(d.a, "wave_remote_waits"))
            if node.vid == PARENT and len(d.fires[PARENT]) == 1:
                # host B wakes up only now: the first wave left without it
                d.submit(CHILD_MIDDLE)
                d.b.kick()

        d.on_fire = on_fire
        d.submit(PARENT_MIDDLE)
        d.a.kick()
        await d.until(lambda: len(d.records) == load + 2
                      and all(rec.completed for rec in d.records))
        assert d.fires[PARENT][0] == [PARENT_MIDDLE]
        assert waits_under_load == [0]
        assert d.counter(d.a, "wave_extras") >= 1
        assert any(CHILD in children for children in d.fires[PARENT])
        check_queue_history(d.records)
        d.close()

    asyncio.run(scenario())


def test_a_child_that_never_reports_costs_a_bounded_wait_and_no_probe():
    async def scenario():
        d = _Deployment(round_seconds=0.002)
        loop = asyncio.get_running_loop()
        start = loop.time()
        d.a.kick()  # host B stays dormant: the child never fires
        await d.until(lambda: len(d.fires.get(PARENT, ())) >= 2)
        bound = Node.REMOTE_PATIENCE * 0.002
        assert loop.time() - start >= bound
        assert all(children == [PARENT_MIDDLE] for children in d.fires[PARENT])
        assert d.counter(d.a, "wave_remote_waits") >= 2
        assert d.counter(d.a, "wave_remote_wait_expired") >= 2
        assert d.counter(d.a, "wave_nudge_probes") == 0
        assert d.counter(d.a, "wave_force_fires") == 0
        d.close()

    asyncio.run(scenario())
