"""Integration tests: baselines, experiment harness, figure drivers."""

import random

from repro.baselines import CentralQueueCluster, NoBatchQueueCluster
from repro.core.requests import BOTTOM, INSERT, REMOVE
from repro.experiments import (
    FixedRateWorkload,
    PerNodeWorkload,
    figure4,
    render_series,
    render_table,
    run_experiment,
)


class TestCentralBaseline:
    def test_correct_fifo(self):
        # the central baseline assigns no Section-V values (it has no
        # anchor counter), so verify results directly
        c = CentralQueueCluster(10, seed=1, service_rate=100)
        c.submit(0, INSERT, "a")
        c.submit(1, INSERT, "b")
        c.step(3)
        h1 = c.submit(2, REMOVE)
        h2 = c.submit(3, REMOVE)
        h3 = c.submit(4, REMOVE)
        c.run_until_done()
        assert c.records[h1].result[1] == "a"
        assert c.records[h2].result[1] == "b"
        assert c.records[h3].result is BOTTOM

    def test_overload_grows_backlog(self):
        c = CentralQueueCluster(20, seed=1, service_rate=2)
        rng = random.Random(0)
        for _ in range(50):
            for _ in range(8):
                c.submit(rng.randrange(20), INSERT)
            c.step()
        assert c.server.backlog_size > 100  # load 8/r vs capacity 2/r
        c.run_until_done()
        assert c.metrics.mean_latency() > 50


class TestNoBatchBaseline:
    def test_correct_results(self):
        c = NoBatchQueueCluster(20, seed=1, anchor_service_rate=100)
        c.submit(0, INSERT, "x")
        c.run_until_done()
        h = c.submit(5, REMOVE)
        c.run_until_done()
        rec = c.records[h]
        assert rec.result[1] == "x"

    def test_anchor_bottleneck(self):
        c = NoBatchQueueCluster(30, seed=1, anchor_service_rate=2)
        rng = random.Random(3)
        for _ in range(60):
            for _ in range(10):
                pid = rng.randrange(30)
                if rng.random() < 0.5:
                    c.submit(pid, INSERT)
                else:
                    c.submit(pid, REMOVE)
            c.step()
        assert c.anchor_backlog > 50
        c.run_until_done()


class TestWorkloads:
    def test_fixed_rate_counts(self):
        w = FixedRateWorkload(50, 0.5, requests_per_round=7, seed=1)
        batch = w.requests_for_round()
        assert len(batch) == 7
        assert all(0 <= pid < 50 for pid, _ in batch)

    def test_per_node_rate_one_hits_everyone(self):
        w = PerNodeWorkload(30, rate=1.0, seed=1)
        batch = w.requests_for_round()
        assert len(batch) == 30

    def test_per_node_thinning(self):
        w = PerNodeWorkload(1000, rate=0.1, seed=1)
        sizes = [len(w.requests_for_round()) for _ in range(20)]
        mean = sum(sizes) / len(sizes)
        assert 60 < mean < 140

    def test_validation(self):
        import pytest

        with pytest.raises(ValueError):
            FixedRateWorkload(10, 1.5)
        with pytest.raises(ValueError):
            PerNodeWorkload(10, -0.1)


class TestHarness:
    def test_run_and_verify(self):
        w = FixedRateWorkload(40, 0.5, requests_per_round=4, seed=2)
        result = run_experiment(w, 40, rounds=60, verify=True)
        assert result.completed == result.generated > 0
        assert result.mean_rounds_per_request > 0
        row = result.row()
        assert set(row) >= {"n", "p", "avg_rounds"}

    def test_figure4_small(self):
        rows = figure4(n=60, rates=(0.1, 1.0), rounds=40)
        assert len(rows) == 4
        stack_high = next(
            r for r in rows if r["structure"] == "stack" and r["rate"] == 1.0
        )
        assert stack_high["annihilated"] > 0


class TestTables:
    def test_render_table(self):
        out = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in out and "22" in out

    def test_render_table_empty(self):
        assert render_table([]) == "(no rows)"

    def test_render_series(self):
        rows = [
            {"n": 1, "y": 10, "s": "q"},
            {"n": 2, "y": 20, "s": "q"},
            {"n": 1, "y": 5, "s": "k"},
        ]
        out = render_series(rows, x="n", y="y", series="s")
        assert "q" in out and "20" in out
