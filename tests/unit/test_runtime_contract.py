"""The Runtime contract: every engine declares and honours it."""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

import repro.core
from repro.core.actions import A_AGG, A_REQUEUE, A_SERVE, A_WAKE
from repro.net.runtime import NetOpRecord, NetRuntime, RecordTable
from repro.sim.async_runner import AsyncRunner
from repro.sim.metrics import Metrics
from repro.sim.process import Actor, Runtime
from repro.sim.sync_runner import SyncRunner


def _net_runtime() -> NetRuntime:
    return NetRuntime(send_remote=lambda dest, action, payload: None)


@pytest.fixture(params=[SyncRunner, AsyncRunner, NetRuntime],
                ids=lambda engine: engine.__name__)
def engine(request):
    """A fresh engine of each kind; the TCP runtime is bound to an event
    loop that :func:`_run_for` turns."""
    if request.param is not NetRuntime:
        yield request.param()
    else:
        loop = asyncio.new_event_loop()
        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: None,
            timeout_lag=0.01,
            sweep_seconds=0,
        )
        runtime.start(loop)
        yield runtime
        runtime.close()
        loop.close()


def _run_for(engine: Runtime, span: int) -> None:
    """Let ``span`` round units pass on any engine."""
    if isinstance(engine, NetRuntime):
        engine._loop.run_until_complete(
            asyncio.sleep(span * engine.round_seconds))
    else:
        engine.run_for(span)


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner, _net_runtime])
def test_every_engine_implements_the_contract(factory):
    engine = factory()
    assert isinstance(engine, Runtime)
    for name in ("now", "send", "request_timeout", "call_later"):
        # what each engine supplies
        assert getattr(type(engine), name) is not getattr(Runtime, name), name
    for name in ("add_actor", "remove_actor", "resolve", "kick",
                 "bounce_forwarded_batch"):
        # what only the base holds, so no engine grows its own copy
        assert getattr(type(engine), name) is getattr(Runtime, name), name
    assert isinstance(engine.metrics, Metrics)
    assert isinstance(engine.now, float)
    assert isinstance(dict(engine.actors), dict)


def _built_on_own_pid(key: ast.expr) -> bool:
    """Does ``key`` contain ``self.pid * 3`` — one of the caller's own
    process's three virtual nodes?"""
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mult)
        and ast.unparse(n.left) == "self.pid"
        and isinstance(n.right, ast.Constant)
        and n.right.value == 3
        for n in ast.walk(key)
    )


def test_node_code_reads_no_other_processs_node():
    """``actors`` holds another process's node only where one engine
    hosts several processes, so node code may look up a node there only
    by its own pid; any other id may only be tested for presence."""
    seen, bad = 0, []
    for module in ("protocol.py", "membership.py"):
        tree = ast.parse((Path(repro.core.__file__).parent / module).read_text())
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "actors"):
                continue
            seen += 1
            use = parents[node]
            call = parents.get(use)
            if isinstance(use, ast.Subscript) and use.value is node:
                ok = _built_on_own_pid(use.slice)
            elif (
                isinstance(use, ast.Attribute)
                and use.attr == "get"
                and isinstance(call, ast.Call)
                and call.func is use
            ):
                ok = bool(call.args) and _built_on_own_pid(call.args[0])
            elif isinstance(use, ast.Compare):
                ok = node in use.comparators and all(
                    isinstance(op, (ast.In, ast.NotIn)) for op in use.ops
                )
            else:
                ok = False
            if not ok:
                bad.append(f"{module}:{node.lineno}: {ast.unparse(use)}")
    assert seen  # the pin looks at something
    assert not bad, bad


class _Recorder(Actor):
    def __init__(self, aid, runtime):
        super().__init__(aid, runtime)
        self.seen = []
        self.timeouts = 0

    def handle(self, action, payload):
        self.seen.append((action, payload))

    def timeout(self):
        self.timeouts += 1


def test_close_drops_actors_and_queued_work(engine):
    actor = _Recorder(7, engine)
    engine.add_actor(actor)
    engine.add_actor(_Recorder(6, engine))
    engine.remove_actor(6, forward_to=7)
    engine.send(7, A_SERVE, ())
    engine.request_timeout(7)  # paced on the TCP runtime
    engine.close()
    assert not engine.actors and engine.resolve(6) == 6
    _run_for(engine, 10)
    assert (actor.seen, actor.timeouts) == ([], 0)


def test_a_forward_chain_resolves_to_its_end(engine):
    for aid in (1, 2, 3):
        engine.add_actor(_Recorder(aid, engine))
    engine.remove_actor(1, forward_to=2)
    engine.remove_actor(2, forward_to=3)
    assert (engine.resolve(1), engine.resolve(2)) == (3, 3)
    assert (engine.resolve(3), engine.resolve(4)) == (3, 4)
    # resolving rewrites nothing: the TCP runtime publishes this table
    assert engine._forwards == {1: 2, 2: 3}


def test_a_forwarded_tree_batch_bounces_back_to_its_sender(engine):
    """A stage-1 batch never follows a departed parent's forward: it
    returns to its sender as ``A_REQUEUE``, whether it was in flight as
    the parent left or sent after.  Any other action reaches the
    absorber."""
    sender, parent, absorber = (_Recorder(aid, engine) for aid in (1, 2, 3))
    for actor in (sender, parent, absorber):
        engine.add_actor(actor)
    engine.send(2, A_AGG, (1, "in flight"))
    engine.remove_actor(2, forward_to=3)
    engine.send(2, A_AGG, (1, "sent after"))
    engine.send(2, A_SERVE, ("served",))
    _run_for(engine, 10)
    assert sender.seen == [(A_REQUEUE, (0,))] * 2
    assert (parent.seen, absorber.seen) == ([], [(A_SERVE, ("served",))])


def test_net_runtime_delivers_locally_and_ships_remotely():
    import asyncio

    shipped = []
    runtime = NetRuntime(
        send_remote=lambda dest, action, payload: shipped.append((dest, action)),
        timeout_lag=0.001,
        sweep_seconds=0.02,
    )

    async def scenario():
        runtime.start(asyncio.get_running_loop())
        local = _Recorder(3, runtime)
        runtime.add_actor(local)
        runtime.send(3, 42, ("x",))       # local: via the event loop
        runtime.send(99, 7, ())           # remote: via send_remote
        runtime.request_timeout(3)
        runtime.request_timeout(3)        # deduplicated while pending
        await asyncio.sleep(0.06)
        assert local.seen == [(42, ("x",))]
        assert shipped == [(99, 7)]
        # one deduplicated explicit TIMEOUT + at least one safety sweep
        assert 2 <= local.timeouts <= 4
        runtime.close()

    asyncio.run(scenario())


def test_net_work_queued_before_a_reset_or_close_is_dropped():
    """A delivery or arrival TIMEOUT queued for a torn-down shard reaches
    neither a respawned actor of the same id (``reset``) nor the peer
    links (``close``); one queued after the reset is delivered."""
    shipped = []
    loop = asyncio.new_event_loop()
    runtime = NetRuntime(
        send_remote=lambda *message: shipped.append(message),
        timeout_lag=0.01,
        sweep_seconds=0,
    )
    runtime.start(loop)
    try:
        old = _Recorder(7, runtime)
        runtime.add_actor(old)
        runtime.send(7, A_SERVE, ("pre-crash",))
        runtime.request_timeout(7, arrival=True)
        runtime.reset()
        respawned = _Recorder(7, runtime)
        runtime.add_actor(respawned)
        runtime.request_timeout(7)  # the respawned actor's own, paced
        runtime.send(7, A_SERVE, ("post-crash",))
        loop.run_until_complete(asyncio.sleep(0.05))
        assert (old.seen, old.timeouts) == ([], 0)
        assert respawned.seen == [(A_SERVE, ("post-crash",))]
        assert respawned.timeouts == 1  # the paced one, not the stale one
        runtime.send(7, A_SERVE, ("pre-close",))
        runtime.request_timeout(7, arrival=True)
        runtime.close()
        loop.run_until_complete(asyncio.sleep(0.05))
        assert shipped == []
        assert (len(respawned.seen), respawned.timeouts) == (1, 1)
    finally:
        runtime.close()
        loop.close()


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner],
                         ids=["sync", "async"])
def test_nothing_polls(factory):
    """A simulated TIMEOUT runs only because the actor asked, a peer
    woke it, a ``call_later`` timer expired or the engine was kicked:
    an actor with none of those gets no TIMEOUT over 1000 rounds (sync)
    or time units (async)."""
    engine = factory()
    idle, kicked = _Recorder(1, engine), _Recorder(2, engine)
    engine.add_actor(idle)
    engine.add_actor(kicked)
    engine.kick([2])
    engine.run_for(1000)
    assert (idle.timeouts, kicked.timeouts) == (0, 1)


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner],
                         ids=["sync", "async"])
def test_a_timer_fires_once_when_due(factory):
    """A ``call_later`` timer is one TIMEOUT at its due round (sync) or
    time (async): none before it, and nothing re-checks the actor after."""
    engine = factory()
    timed = _Recorder(1, engine)
    engine.add_actor(timed)
    engine.call_later(1, 10)
    engine.run_for(9)
    assert timed.timeouts == 0
    engine.run_for(1)
    assert timed.timeouts == 1
    engine.run_for(1000)
    assert timed.timeouts == 1


class TestArrivalTimeout:
    """``request_timeout(aid, arrival=True)``: a child's batch arrived.

    The simulators schedule it exactly like any other TIMEOUT (their
    recorded schedules and paper-shape counts depend on it); the TCP
    runtime runs it on the next loop iteration and paces the rest.
    """

    def test_sync_arrival_runs_with_this_rounds_timeouts(self):
        engine = SyncRunner()
        paced, arrived = _Recorder(1, engine), _Recorder(2, engine)
        engine.add_actor(paced)
        engine.add_actor(arrived)
        engine.request_timeout(1)
        engine.request_timeout(2, arrival=True)
        engine.request_timeout(2)  # one TIMEOUT per actor and round
        engine.step()
        assert (paced.timeouts, arrived.timeouts) == (1, 1)

    def test_async_arrival_pays_the_lag_and_deduplicates(self):
        engine = AsyncRunner()  # TIMEOUT_LAG: 0.25
        paced, arrived = _Recorder(1, engine), _Recorder(2, engine)
        engine.add_actor(paced)
        engine.add_actor(arrived)
        engine.request_timeout(1)
        engine.request_timeout(2, arrival=True)
        engine.request_timeout(2)
        engine.request_timeout(2, arrival=True)
        engine.run_for(0.2)
        assert (paced.timeouts, arrived.timeouts) == (0, 0)
        engine.run_for(0.1)
        assert (paced.timeouts, arrived.timeouts) == (1, 1)
        assert engine.events_processed == 2

    def test_net_arrival_runs_at_once_and_paced_waits_out_the_lag(self):
        import asyncio

        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: None,
            timeout_lag=0.05,
            sweep_seconds=0,
        )

        async def scenario():
            runtime.start(asyncio.get_running_loop())
            paced, arrived, both = (_Recorder(i, runtime) for i in (1, 2, 3))
            for actor in (paced, arrived, both):
                runtime.add_actor(actor)
            runtime.request_timeout(1)
            runtime.request_timeout(1)                 # deduplicated
            runtime.request_timeout(2, arrival=True)
            runtime.request_timeout(2, arrival=True)   # deduplicated
            runtime.request_timeout(2)                 # ... with paced ones too
            runtime.request_timeout(3)
            runtime.request_timeout(3, arrival=True)   # brings the paced one forward
            await asyncio.sleep(0.01)  # well inside the 50 ms pace
            assert (paced.timeouts, arrived.timeouts, both.timeouts) == (0, 1, 1)
            assert set(runtime._timeout_pending) == {1}
            await asyncio.sleep(0.08)
            # the pace elapsed: one TIMEOUT each, no second timer fired
            assert (paced.timeouts, arrived.timeouts, both.timeouts) == (1, 1, 1)
            assert not runtime._timeout_pending
            runtime.close()

        asyncio.run(scenario())


class TestWakeDiscipline:
    """``Runtime.wake``: pushed cross-actor readiness, on every engine.

    The contract pinned here: ``wake(actor_id)`` schedules a TIMEOUT for
    the actor wherever it lives, follows forwarding addresses, draws no
    randomness (so waking a peer never perturbs a recorded schedule),
    deduplicates with a pending ``request_timeout``, and is the clock:
    the simulators run no periodic sweep.
    """

    def test_sync_wake_runs_timeout_next_round_without_sweep(self):
        engine = SyncRunner()
        actor = _Recorder(7, engine)
        engine.add_actor(actor)
        engine.wake(7)
        engine.step()
        assert actor.timeouts == 1
        engine.step()  # no wake: nothing re-checks the actor
        assert actor.timeouts == 1

    def test_sync_wake_follows_forwarding_and_draws_no_randomness(self):
        engine = SyncRunner()
        departed, absorber = _Recorder(3, engine), _Recorder(5, engine)
        engine.add_actor(departed)
        engine.add_actor(absorber)
        engine.remove_actor(3, forward_to=5)
        state = engine._delivery_rng.getstate()
        engine.wake(3)
        assert engine._delivery_rng.getstate() == state
        engine.step()
        assert absorber.timeouts == 1
        assert departed.timeouts == 0

    def test_async_wake_deduplicates_and_draws_no_randomness(self):
        engine = AsyncRunner()
        actor = _Recorder(4, engine)
        engine.add_actor(actor)
        state = engine._delay_rng.getstate()
        engine.wake(4)
        engine.wake(4)             # deduplicated with the pending TIMEOUT
        engine.request_timeout(4)  # ... and with the actor's own request
        assert engine._delay_rng.getstate() == state
        engine.run_for(10.0)
        assert actor.timeouts == 1

    def test_net_wake_ships_a_wake_action_for_remote_actors(self):
        shipped = []
        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: shipped.append(
                (dest, action, payload)
            )
        )
        runtime._forwards[5] = 99
        runtime.wake(99)
        runtime.wake(5)  # forwarded id resolves before shipping
        assert shipped == [(99, A_WAKE, ()), (99, A_WAKE, ())]
        runtime.close()
        runtime.wake(99)  # closed: dropped, not shipped
        assert len(shipped) == 2

    def test_net_wake_drives_local_timeout_with_the_sweep_disabled(self):
        import asyncio

        runtime = NetRuntime(
            send_remote=lambda dest, action, payload: None,
            timeout_lag=0.001,
            sweep_seconds=0,
        )

        async def scenario():
            runtime.start(asyncio.get_running_loop())
            local = _Recorder(3, runtime)
            runtime.add_actor(local)
            runtime.wake(3)
            runtime.wake(3)  # deduplicated while pending
            await asyncio.sleep(0.03)
            assert local.timeouts == 1
            runtime.close()

        asyncio.run(scenario())


class TestRecordTable:
    """``ctx.records`` on a host (the rest of the record plane is driven
    by ``tests/unit/test_records.py``)."""

    @staticmethod
    def _table(host_index=0, id_slots=2):
        sent = []
        table = RecordTable(
            host_index, id_slots,
            lambda host, frame: sent.append((host, frame)) or True,
        )
        return table, sent

    def test_local_records_resolve_and_complete(self):
        table, sent = self._table()
        rec = NetOpRecord(4, 0, 0, 0, "item", 0.0)
        done = []
        rec.on_completed = lambda r: done.append(r.req_id)
        table.add_local(rec)
        assert table[4] is rec
        rec.completed = True
        rec.completed = True  # idempotent: callback fires once
        assert done == [4]
        assert not sent

    def test_remote_ids_get_forwarding_stubs(self):
        table, sent = self._table()
        table.gen = lambda: 3  # the table stamps the frames it makes
        stub = table[7]  # 7 % 2 == 1: owned by host 1
        stub.completed = True
        stub.completed = True
        assert sent == [(1, {"op": "complete", "req": 7, "done": True,
                             "gen": 3})]

    def test_stub_forwards_learned_fields_with_completion(self):
        table, sent = self._table()
        stub = table[9]
        stub.result = (9, "payload")
        stub.completed = True
        assert sent == [(1, {
            "op": "complete", "req": 9,
            "result": (9, "payload"), "done": True, "gen": 0,
        })]

    def test_adopt_wire_copy_forwards_value_and_completion(self):
        """A wave proxy tells the origin every fact it learns."""
        from repro.core.requests import OpRecord

        table, sent = self._table()
        donor = OpRecord(5, 3, 1, 0, "x", 0.25)  # 5 % 2 == 1: remote origin
        adopted = table.adopt(donor)
        assert adopted is not donor
        assert table.adopt(donor) is adopted  # memoised
        assert table[5] is adopted  # GET replies find the same object
        adopted.value = 42  # stage 3 assigns the witness rank
        adopted.result = (5, "x")
        adopted.completed = True
        assert sent == [
            (1, {"op": "complete", "req": 5, "value": 42, "gen": 0}),
            (1, {"op": "complete", "req": 5, "value": 42,
                 "result": (5, "x"), "done": True, "gen": 0}),
        ]

    def test_adopt_local_origin_returns_the_canonical_record(self):
        table, _ = self._table()
        rec = NetOpRecord(6, 0, 0, 0, None, 0.0)
        table.add_local(rec)
        assert table.adopt(rec) is rec

    def test_foreign_req_id_rejected_and_unknown_local_raises(self):
        table, _ = self._table()
        with pytest.raises(ValueError):
            table.add_local(NetOpRecord(3, 1, 0, 0, None, 0.0))  # 3 % 2 != 0
        with pytest.raises(KeyError):
            table[2]  # local residue but never submitted
