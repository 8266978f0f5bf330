"""Integration tests: experiment harness, workloads, figure sweeps."""

from repro.experiments import (
    FixedRateWorkload,
    PerNodeWorkload,
    figure4,
    run_experiment,
)


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

