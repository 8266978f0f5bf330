"""The Runtime contract: every engine declares and honours it."""

from __future__ import annotations

import pytest

from repro.core.actions import A_WAKE
from repro.net.runtime import NetOpRecord, NetRuntime, RecordTable
from repro.sim.async_runner import AsyncRunner
from repro.sim.metrics import Metrics
from repro.sim.process import Actor, Runtime
from repro.sim.sync_runner import SyncRunner


def _net_runtime() -> NetRuntime:
    return NetRuntime(send_remote=lambda dest, action, payload: None)


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner, _net_runtime])
def test_every_engine_implements_the_contract(factory):
    engine = factory()
    assert isinstance(engine, Runtime)
    # the structural check plus the members isinstance() cannot see
    for name in ("send", "request_timeout", "call_later", "resolve", "wake",
                 "add_actor", "remove_actor", "kick", "close"):
        assert callable(getattr(engine, name)), name
    assert isinstance(engine.metrics, Metrics)
    assert isinstance(engine.now, float)
    assert isinstance(dict(engine.actors), dict)
    # only the TCP runtime hosts a shard of a larger deployment
    assert engine.sharded is (factory is _net_runtime)


@pytest.mark.parametrize("factory", [SyncRunner, AsyncRunner])
def test_close_drops_actors_and_queued_work(factory):
    engine = factory()
    actor = Actor(7, engine)
    engine.add_actor(actor)
    engine.send(7, 0, ())
    engine.request_timeout(7)
    engine.close()
    assert not engine.actors


class _Recorder(Actor):
    def __init__(self, aid, runtime):
        super().__init__(aid, runtime)
        self.seen = []
        self.timeouts = 0

    def handle(self, action, payload):
        self.seen.append((action, payload))

    def timeout(self):
        self.timeouts += 1


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


class TestArrivalTimeout:
    """``request_timeout(aid, arrival=True)``: a child's batch arrived.

    The simulators schedule it exactly like any other TIMEOUT (their
    recorded schedules and paper-shape counts depend on it); the TCP
    runtime runs it on the next loop iteration and paces the rest.
    """

    def test_sync_arrival_runs_with_this_rounds_timeouts(self):
        engine = SyncRunner(safety_tick=0)
        paced, arrived = _Recorder(1, engine), _Recorder(2, engine)
        engine.add_actor(paced)
        engine.add_actor(arrived)
        engine.request_timeout(1)
        engine.request_timeout(2, arrival=True)
        engine.request_timeout(2)  # one TIMEOUT per actor and round
        engine.step()
        assert (paced.timeouts, arrived.timeouts) == (1, 1)

    def test_async_arrival_pays_the_lag_and_deduplicates(self):
        engine = AsyncRunner(safety_tick=0, timeout_lag=0.25)
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
    deduplicates with a pending ``request_timeout``, and works with the
    safety sweep disabled — the sweep is not the clock.
    """

    def test_sync_wake_runs_timeout_next_round_without_sweep(self):
        engine = SyncRunner(safety_tick=0)
        actor = _Recorder(7, engine)
        engine.add_actor(actor)
        engine.wake(7)
        engine.step()
        assert actor.timeouts == 1
        engine.step()  # no wake, no sweep: nothing re-checks the actor
        assert actor.timeouts == 1

    def test_sync_wake_follows_forwarding_and_draws_no_randomness(self):
        engine = SyncRunner(safety_tick=0)
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
        engine = AsyncRunner(safety_tick=0)
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


def test_net_runtime_forwarding_addresses():
    runtime = _net_runtime()
    runtime._forwards[5] = 8
    runtime._forwards[8] = 11
    assert runtime.resolve(5) == 11
    assert runtime.resolve(4) == 4


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
        stub = table[7]  # 7 % 2 == 1: owned by host 1
        stub.completed = True
        stub.completed = True
        assert sent == [(1, {"op": "complete", "req": 7, "done": True})]

    def test_stub_forwards_learned_fields_with_completion(self):
        table, sent = self._table()
        stub = table[9]
        stub.result = (9, "payload")
        stub.completed = True
        assert sent == [(1, {
            "op": "complete", "req": 9,
            "result": (9, "payload"), "done": True,
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
            (1, {"op": "complete", "req": 5, "value": 42}),
            (1, {"op": "complete", "req": 5, "value": 42,
                 "result": (5, "x"), "done": True}),
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
