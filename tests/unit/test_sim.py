"""Unit tests for the simulation engines."""

import pytest

from repro.sim.async_runner import AsyncRunner
from repro.sim.delays import (
    AdversarialSkewDelay,
    ExponentialDelay,
    FixedDelay,
    UniformDelay,
)
from repro.sim.metrics import Metrics
from repro.sim.process import Actor
from repro.sim.sync_runner import SyncRunner
from repro.util.rng import RngStreams


class Echo(Actor):
    """Test actor: records deliveries, optionally replies."""

    __slots__ = ("log", "reply_to")

    def __init__(self, aid, runtime, reply_to=None):
        super().__init__(aid, runtime)
        self.log = []
        self.reply_to = reply_to

    def handle(self, action, payload):
        self.log.append((self.runtime.now, action, payload))
        if self.reply_to is not None:
            self.send(self.reply_to, action + 1, payload)

    def timeout(self):
        self.log.append((self.runtime.now, "timeout", None))


class TestSyncRunner:
    def test_next_round_delivery(self):
        runner = SyncRunner()
        a, b = Echo(1, runner), Echo(2, runner)
        runner.add_actor(a)
        runner.add_actor(b)
        a.send(2, 0, ("hi",))
        assert b.log == []
        runner.step()
        assert b.log == [(1.0, 0, ("hi",))]

    def test_duplicate_actor_rejected(self):
        runner = SyncRunner()
        runner.add_actor(Echo(1, runner))
        with pytest.raises(ValueError):
            runner.add_actor(Echo(1, runner))

    def test_forwarding(self):
        runner = SyncRunner()
        a, b = Echo(1, runner), Echo(2, runner)
        runner.add_actor(a)
        runner.add_actor(b)
        runner.remove_actor(1, forward_to=2)
        b.send(1, 7, ())
        runner.step()
        assert b.log[-1][1] == 7

    def test_unknown_destination_raises(self):
        runner = SyncRunner()
        runner.add_actor(Echo(1, runner))
        runner.actors[1].send(99, 0, ())
        with pytest.raises(KeyError):
            runner.step()

    def test_timers(self):
        runner = SyncRunner()
        a = Echo(1, runner)
        runner.add_actor(a)
        runner.call_later(1, 3)
        runner.run_for(2)
        assert a.log == []
        runner.step()
        assert a.log == [(3.0, "timeout", None)]

    def test_run_until_bound(self):
        runner = SyncRunner()
        with pytest.raises(RuntimeError):
            runner.run_until(lambda: False, max_rounds=5)

    def test_messages_counted(self):
        runner = SyncRunner()
        a = Echo(1, runner)
        runner.add_actor(a)
        a.send(1, 0, ())
        assert runner.metrics.messages == 1


class TestAsyncRunner:
    def test_delivery_and_time(self):
        runner = AsyncRunner(delay_policy=FixedDelay(2.0))
        a, b = Echo(1, runner), Echo(2, runner)
        runner.add_actor(a)
        runner.add_actor(b)
        a.send(2, 0, ("x",))
        runner.run_for(3.0)
        assert b.log and b.log[0][0] == 2.0

    def test_non_fifo_reordering_possible(self):
        runner = AsyncRunner(
            rng=RngStreams(5), delay_policy=UniformDelay(0.1, 5.0)
        )
        a, b = Echo(1, runner), Echo(2, runner)
        runner.add_actor(a)
        runner.add_actor(b)
        for i in range(50):
            a.send(2, i, ())
        runner.run_for(10.0)
        order = [entry[1] for entry in b.log]
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # at least one reorder

    def test_rejects_nonpositive_delay(self):
        runner = AsyncRunner(delay_policy=lambda s, d, r: 0.0)
        a = Echo(1, runner)
        runner.add_actor(a)
        with pytest.raises(ValueError):
            a.send(1, 0, ())


class TestDelayPolicies:
    def test_all_positive(self):
        rng = RngStreams(1).py("d")
        for policy in (
            FixedDelay(1.0),
            UniformDelay(0.5, 2.0),
            ExponentialDelay(1.0),
            AdversarialSkewDelay(),
        ):
            for i in range(200):
                assert policy(i, i + 1, rng) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedDelay(0)
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialDelay(-1)

    def test_adversarial_skew_is_deterministic_per_edge(self):
        policy = AdversarialSkewDelay(jitter=0.0)
        rng = RngStreams(1).py("d2")
        assert policy(3, 4, rng) == policy(3, 4, rng)


class TestMetrics:
    def test_latency_stats(self):
        metrics = Metrics()
        metrics.request_generated(3)
        metrics.observe("enqueue", 5.0)
        metrics.observe("enqueue", 7.0)
        assert metrics.pending == 1
        assert metrics.latency["enqueue"].mean == 6.0
        assert metrics.latency["enqueue"].max == 7.0

    def test_mean_latency_filtered(self):
        metrics = Metrics()
        metrics.request_generated(2)
        metrics.observe("a", 10.0)
        metrics.observe("b", 20.0)
        assert metrics.mean_latency() == 15.0
        assert metrics.mean_latency(("a",)) == 10.0

    def test_samples_mode(self):
        metrics = Metrics(store_samples=True)
        metrics.request_generated()
        metrics.observe("x", 3.0)
        assert metrics.latency["x"].samples == [3.0]

    def test_batch_tracking(self):
        metrics = Metrics()
        metrics.note_batch_len(3)
        metrics.note_batch_len(9)
        assert metrics.max_batch_len == 9
        assert metrics.batch_observations == 2

    def test_summary_shape(self):
        metrics = Metrics()
        metrics.request_generated()
        metrics.observe("enqueue", 1.0)
        summary = metrics.summary()
        assert summary["generated"] == 1
        assert "enqueue" in summary["per_kind"]
