"""The telemetry plane: registry, tracer, live profiling, exporters.

Everything here runs without a deployment — the TCP wiring is covered
by tests/net/test_telemetry_net.py; this file pins the pure layer's
contracts: O(1) instruments that render valid Prometheus text, a
tracer whose export validates as Chrome trace-event JSON, deterministic
sampling, and JSON-safe summaries (no Infinity leaking into dumps).
"""

from __future__ import annotations

import asyncio
import collections
import json

import pytest

import repro
from repro import SkueueCluster
from repro.core.protocol import Node
from repro.core.requests import INSERT, REMOVE
from repro.core.structures import structure_names
from repro.sim.metrics import Metrics
from repro.testing.scenario import Scenario, run_scenario
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    capture_profile,
    merge_traces,
    render_run_metrics,
    trace_sampled,
    validate_chrome_trace,
)


class _Rec:
    def __init__(self, req_id):
        self.req_id = req_id


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        c, g, h = Counter(), Gauge(), Histogram(buckets=(1, 2, 4))
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g.set(7)
        g.dec(3)
        assert g.read() == 4
        for v in (0.5, 1.5, 3, 100):
            h.observe(v)
        assert h.count == 4 and h.min == 0.5 and h.max == 100
        assert h.counts == [1, 1, 1, 1]  # one per bucket incl. +Inf

    def test_gauge_set_fn_samples_at_read_time(self):
        depth = []
        g = Gauge()
        g.set_fn(lambda: len(depth))
        assert g.read() == 0
        depth.extend([1, 2, 3])
        assert g.read() == 3

    def test_histogram_percentiles_interpolate(self):
        h = Histogram(buckets=(10, 20, 30))
        for v in range(1, 31):  # uniform over (0, 30]
            h.observe(v)
        assert h.percentile(0.5) == pytest.approx(15, abs=5)
        assert h.percentile(0.99) == pytest.approx(30, abs=5)
        # the +Inf bucket answers with the observed max
        h.observe(1000)
        assert h.percentile(1.0) == 1000

    def test_empty_histogram_is_json_safe(self):
        d = Histogram().to_dict()
        assert d["count"] == 0 and d["min"] is None and d["max"] is None
        assert "Infinity" not in json.dumps(d)

    def test_registry_identity_and_kind_conflicts(self):
        reg = MetricsRegistry()
        a = reg.counter("skueue_frames_total", "frames", direction="in")
        b = reg.counter("skueue_frames_total", direction="in")
        assert a is b
        assert reg.counter("skueue_frames_total", direction="out") is not a
        with pytest.raises(ValueError):
            reg.gauge("skueue_frames_total")

    def test_render_is_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("skueue_frames_total", "frames seen", direction="in").inc(3)
        reg.gauge("skueue_actors", "live actors").set(12)
        reg.histogram("skueue_batch", buckets=(1, 4)).observe(2)
        text = reg.render()
        assert "# TYPE skueue_frames_total counter" in text
        assert 'skueue_frames_total{direction="in"} 3' in text
        assert "skueue_actors 12" in text
        assert 'skueue_batch_bucket{le="4"} 1' in text
        assert 'skueue_batch_bucket{le="+Inf"} 1' in text
        assert "skueue_batch_count 1" in text

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set_fn(lambda: 2)
        reg.histogram("h")
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"][""] == 1.0
        assert snap["g"][""] == 2.0
        assert snap["h"][""]["count"] == 0

    def test_counter_set_fn_samples_at_render_time(self):
        """A counter whose truth accumulates elsewhere (the engine's run
        metrics) renders and snapshots the sampled value — how the net
        host exposes skueue_wave_nudge_probes_total / _force_fires_total
        without the core protocol knowing about the registry."""
        backing = {"wave_force_fires": 0}
        reg = MetricsRegistry()
        reg.counter("skueue_wave_force_fires_total", "hatch trips").set_fn(
            lambda: backing["wave_force_fires"])
        assert "skueue_wave_force_fires_total 0" in reg.render()
        backing["wave_force_fires"] = 7
        assert "skueue_wave_force_fires_total 7" in reg.render()
        assert reg.snapshot()["skueue_wave_force_fires_total"][""] == 7.0


# -- deterministic sampling ---------------------------------------------------


class TestSampling:
    def test_edges(self):
        assert not trace_sampled(1, 0.0)
        assert trace_sampled(1, 1.0)

    def test_deterministic_and_roughly_proportional(self):
        rate = 0.1
        first = [trace_sampled(i, rate) for i in range(5000)]
        assert first == [trace_sampled(i, rate) for i in range(5000)]
        hits = sum(first)
        assert 300 < hits < 700  # ~500 expected

    def test_agreement_needs_no_coordination(self):
        # same decision from "client" and "host" call sites by construction
        for req in (0, 17, 2**33 + 5, 12884901888):
            assert trace_sampled(req, 0.25) == trace_sampled(req, 0.25)


# -- tracer -------------------------------------------------------------------


def _clock(values):
    it = iter(values)
    last = [0.0]

    def tick():
        try:
            last[0] = next(it)
        except StopIteration:
            pass
        return last[0]

    return tick


class TestTracer:
    def test_lifecycle_populates_phases_export_and_ring(self):
        t = Tracer(1.0, clock=_clock([0, 1, 2, 3, 4, 5, 6, 7, 8]), host=3)
        t.on_submit(17, kind=0, pid=2)
        t.wave_join([_Rec(17)], vid=9)
        t.valued(17, value=4)
        t.hop(17, 11)
        t.finish(17, result="acked")
        assert t.started == t.finished == 1
        summary = t.phase_summary()
        for phase in ("buffer", "wave", "deliver", "total"):
            assert summary[phase]["count"] == 1
        assert summary["hops"]["count"] == 1 and summary["hops"]["max"] == 1
        record = t.lookup(17)
        assert record["kind"] == 0 and record["hops"] == 1
        assert set(record["phases_ms"]) == {"buffer", "wave", "deliver"}
        export = t.export()
        assert validate_chrome_trace(export) == []
        names = {e["name"] for e in export["traceEvents"]}
        assert "hop@11" in names and "done" in names

    def test_unsampled_ids_cost_nothing(self):
        t = Tracer(0.0)
        t.on_submit(17)
        t.valued(17)
        t.finish(17)
        assert t.started == 0 and not t.export()["traceEvents"]

    def test_wire_tagged_continuation_via_ensure(self):
        # a rate-0 tracer (a transit host) still opens spans on demand
        t = Tracer(0.0, clock=_clock([0, 1, 2, 3]))
        t.ensure(99)
        t.hop(99, 5)
        t.hop(99, 6)
        assert t.tracing and t.active(99)
        t.finish(99, result="stored")
        # no submit mark: events flush but the lifecycle stats stay clean
        assert t.finished == 1
        assert t.phase_summary()["total"]["count"] == 0
        assert t.lookup(99) is None
        assert len(t.recent) == 0

    def test_double_finish_is_idempotent(self):
        t = Tracer(1.0)
        t.on_submit(5)
        t.finish(5)
        t.finish(5)
        assert t.finished == 1

    def test_expire_sweeps_stale_transit_spans(self):
        t = Tracer(0.0, clock=_clock([0.0, 1.0, 2.0, 100.0, 100.0]),
                   time_scale=1e6)
        t.ensure(1)
        t.hop(1, 3)
        swept = t.expire(30.0)  # clock is at 100s; span opened at 1s
        assert swept == 1 and t.expired == 1 and not t.tracing
        # the hop still made it into the export
        assert any(e["name"] == "hop@3" for e in t.export()["traceEvents"])

    def test_max_active_sheds_oldest(self):
        t = Tracer(1.0)
        t.MAX_ACTIVE = 2
        for req in (1, 2, 3):
            t.on_submit(req)
        assert t.dropped == 1 and not t.active(1) and t.active(3)

    @staticmethod
    def _timed(t: Tracer, now: list, req: int, seconds: float) -> None:
        t.on_submit(req)
        now[0] += seconds
        t.finish(req)

    def test_the_slow_ring_takes_an_op_at_or_past_the_running_p99(self):
        now = [0.0]
        t = Tracer(1.0, clock=lambda: now[0])
        self._timed(t, now, 1, 0.010)  # nothing before it: the p99 is 0
        for req in range(2, 101):
            self._timed(t, now, req, 0.010)
        slow = len(t.slow)
        self._timed(t, now, 101, 0.001)  # under the running p99
        assert len(t.slow) == slow and t.slow[0]["req"] == 1
        self._timed(t, now, 102, 0.5)    # past it
        assert len(t.slow) == slow + 1 and t.slow[-1]["req"] == 102
        assert len(t.recent) == 102

    def test_the_slow_ring_keeps_the_64_most_recent(self):
        # past the last bucket the p99 estimate is the largest op so far:
        # each op longer than every one before it is slow
        now = [0.0]
        t = Tracer(1.0, clock=lambda: now[0])
        for req in range(1, Tracer.SLOW_RING + 11):
            self._timed(t, now, req, 100.0 + req)
        self._timed(t, now, 999, 100.0)
        assert Tracer.SLOW_RING == 64
        assert [r["req"] for r in t.slow] == list(range(11, 75))

    def test_merge_traces_keeps_host_lanes(self):
        t0 = Tracer(1.0, clock=_clock([0, 1]), host=0)
        t1 = Tracer(1.0, clock=_clock([0, 1]), host=1)
        for t, req in ((t0, 1), (t1, 2)):
            t.on_submit(req)
            t.finish(req)
        merged = merge_traces([t0.export(), t1.export()])
        assert validate_chrome_trace(merged) == []
        assert {e["pid"] for e in merged["traceEvents"]} == {0, 1}
        assert [h["host"] for h in merged["otherData"]["hosts"]] == [0, 1]


# -- simulator integration ----------------------------------------------------


class TestSimTracing:
    @pytest.mark.parametrize("structure", structure_names())
    def test_every_op_exports_its_lifecycle(self, structure):
        """Stage 4 and the DHT handlers stamp once, for every structure:
        a completed op exports ``submit`` and ``done``, a valued one
        ``valued`` too, a locally annihilated pair closes at once, and
        nothing stays open behind a drained run."""
        with repro.connect("sync", n_processes=8, seed=3, structure=structure,
                           trace_sample=1.0) as session:
            for i in range(12):
                session.submit(INSERT, f"early{i}", pid=i % 8)
            session.drain()
            # one round: on a stack, pids 0-3 pop their own unsent push
            for i in range(8):
                session.submit(INSERT, f"late{i}", pid=i)
            for i in range(25):
                session.submit(REMOVE, pid=i % 4 if i < 4 else 4 + i % 4)
            session.drain()
            export = session.trace()
            tracer = session.cluster.tracer
            records = session.cluster.records
        assert validate_chrome_trace(export) == []
        assert not tracer._active
        events = export["traceEvents"]
        names = collections.Counter(event["name"] for event in events)
        results = collections.Counter(
            event["args"]["result"] for event in events
            if event["name"] == "done"
        )
        valued = [rec for rec in records if rec.value is not None]
        assert names["submit"] == names["done"] == len(records) == 45
        assert names["valued"] == len(valued) > 0
        assert results["annihilated"] == sum(r.local_match for r in records)
        assert results["empty"] >= 5
        for rec in records:
            lifecycle = tracer.lookup(rec.req_id)  # filed at `done`
            assert ("deliver" in lifecycle["phases_ms"]) == (rec in valued)
        assert tracer.phase_summary()["total"]["count"] == 45

    def test_untraced_cluster_exports_empty_envelope(self):
        with SkueueCluster(n_processes=8, seed=3) as c:
            c.submit(0, INSERT, "x")
            c.run_until_done()
            assert c.trace()["traceEvents"] == []


# -- wave-liveness escape hatch counters (A_NUDGE path) -----------------------


class TestWaveLivenessCounters:
    """``wave_nudge_probes`` / ``wave_force_fires`` are the visibility
    the force-fire escape hatch gets: a deployment riding it shows up in
    a ``/metrics`` scrape instead of only stalling quietly."""

    def test_nudge_probes_are_counted_and_scraped(self, monkeypatch):
        # shrink the patience window so ordinary pipelining waits cross
        # it and launch probes; the run still settles (probes are
        # read-only unless they confirm a genuine wait cycle)
        monkeypatch.setattr(Node, "WAVE_PATIENCE", 2)
        with SkueueCluster(n_processes=8, seed=3) as c:
            for i in range(40):
                c.submit(i % 8, INSERT, i)
            c.run_until_done()
            for i in range(40):
                c.submit(i % 8, REMOVE)
            c.run_until_done()
            assert c.metrics.counters["wave_nudge_probes"] > 0
            assert "wave_force_fires" not in c.metrics.counters  # no cycles
            text = render_run_metrics(c.metrics)
        assert 'skueue_events_total{event="wave_nudge_probes"}' in text

    def test_confirmed_probe_stamps_wave_force_fires(self):
        """Bounce a waiting node's own probe back at it — the exact
        delivery a wait cycle produces — and the fire-without-stragglers
        branch must stamp the counter (and the run must still settle:
        abandoned batches ride later waves as extras)."""
        c = SkueueCluster(n_processes=8, seed=3)
        for i in range(60):
            c.submit(i % 8, INSERT, i)
        for _ in range(4000):
            c.step(1)
            for actor in list(c.runtime.actors.values()):
                if isinstance(actor, Node) and actor.wait_since is not None:
                    actor._on_nudge((actor.vid, actor.nudge_token + 1))
            if c.metrics.counters.get("wave_force_fires"):
                break
        assert c.metrics.counters["wave_force_fires"] > 0
        c.run_until_settled(60_000)
        text = render_run_metrics(c.metrics)
        assert 'skueue_events_total{event="wave_force_fires"}' in text

    @pytest.mark.parametrize("runner", ["sync", "async"])
    @pytest.mark.parametrize("structure", ["queue", "heap"])
    def test_churn_free_queue_and_heap_cells_never_force_fire(
            self, structure, runner):
        """Without a membership splice the queue and the heap have no
        wait cycle to dissolve.  The stack is left out on purpose: a
        probe reaching a stage-4 barrier confirms, and churn-free stack
        cells do force-fire (DESIGN.md, "Event-driven waves")."""
        fired = {}
        for seed in range(20):
            scenario = Scenario.from_seed(seed, structure, runner).with_(churn=())
            result = run_scenario(scenario)
            assert not result.failed, seed
            fires = result.metrics.counters.get("wave_force_fires", 0)
            if fires:
                fired[seed] = fires
        assert fired == {}


# -- run metrics (sim/metrics.py satellites) ----------------------------------


class TestMetricsSummary:
    def test_summary_carries_percentiles_and_min(self):
        m = Metrics(store_samples=True)
        for v in (1.0, 2.0, 3.0, 4.0):
            m.observe("insert", v)
        s = json.loads(json.dumps(m.summary()))
        kind = s["per_kind"]["insert"]
        assert kind["min"] == 1.0 and kind["max"] == 4.0
        assert kind["p50"] == 3.0 and kind["p99"] == 4.0

    def test_summary_without_samples_answers_null_percentiles(self):
        m = Metrics()
        m.observe("insert", 2.0)
        kind = m.summary()["per_kind"]["insert"]
        assert kind["p50"] is None and kind["min"] == 2.0

    def test_empty_stats_never_serialize_infinity(self):
        m = Metrics()
        text = json.dumps(m.summary())
        assert "Infinity" not in text

    def test_note_stat_channel_is_separate_from_latency(self):
        m = Metrics()
        m.note_stat("wave_duration", 2.0)
        m.note_stat("wave_duration", 4.0)
        s = m.summary()
        assert s["stats"]["wave_duration"]["count"] == 2
        assert s["mean_latency"] == 0.0  # headline stat untouched


# -- the checked-in example trace ---------------------------------------------


class TestExampleTrace:
    def test_checked_in_example_trace_is_chrome_loadable(self):
        """The example capture (3 TCP hosts, trace_sample=0.01) must
        stay valid Chrome trace-event JSON — it's the artifact the
        TESTING.md Perfetto recipe tells people to expect."""
        from pathlib import Path

        path = (Path(__file__).parents[2] / "docs" / "traces"
                / "example-op-trace.json")
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        assert data["traceEvents"]
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert complete and all(e["dur"] > 0 for e in complete)
        assert len({e["pid"] for e in data["traceEvents"]}) == 3  # host lanes


# -- live profiling ------------------------------------------------------------


class TestProfiling:
    def test_capture_profile_reports_loop_work(self):
        async def run():
            return await capture_profile(0.1, top=5)

        text = asyncio.run(run())
        assert "function calls" in text
