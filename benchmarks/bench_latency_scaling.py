"""Theorem 15 / Corollary 16: O(log n) rounds per request, even with a
node-local flood of buffered requests (batching flushes them together).
"""

from __future__ import annotations

from conftest import run_once

from repro.core.cluster import SkueueCluster
from repro.experiments.figures import full_scale
from repro.experiments.harness import run_experiment
from repro.experiments.tables import render_table
from repro.experiments.workload import FixedRateWorkload
from repro.core.requests import INSERT


def _latency_sweep():
    sizes = [1000, 4000, 16000] if full_scale() else [200, 800, 3200]
    rows = []
    for n in sizes:
        workload = FixedRateWorkload(n, 0.5, requests_per_round=10, seed=9)
        result = run_experiment(workload, n, rounds=120, seed=9)
        rows.append(
            {
                "n": n,
                "avg_rounds": round(result.mean_rounds_per_request, 1),
                "requests": result.generated,
            }
        )
    return rows


def test_latency_scales_logarithmically(benchmark):
    rows = run_once(benchmark, _latency_sweep)
    print()
    print(render_table(rows))
    first, last = rows[0], rows[-1]
    size_growth = last["n"] / first["n"]
    latency_growth = last["avg_rounds"] / first["avg_rounds"]
    assert latency_growth < size_growth ** 0.5, (
        f"x{size_growth} nodes grew latency x{latency_growth:.2f}"
    )
    benchmark.extra_info["rows"] = rows


def test_waves_do_not_ride_the_safety_sweep(benchmark):
    """Wave pacing must come from pushed wakes, not a TIMEOUT sweep.

    Before the event-driven redesign, disabling the periodic
    whole-system sweep stalled the pipeline: waves only advanced when
    the sweep happened to re-check a waiting node, so per-request
    latency was a multiple of the sweep period (the fig2 queue point at
    n=1000 sat at ~1488 avg rounds).  The simulators now run no sweep at
    all and readiness is pushed; a regression to waves that wait on a
    missing push shows up as a stall or a latency far past the anchor.
    """

    def measure():
        workload = FixedRateWorkload(800, 0.5, requests_per_round=10, seed=9)
        return run_experiment(workload, 800, rounds=120, seed=9).mean_rounds_per_request

    avg = run_once(benchmark, measure)
    print(f"\nn=800 avg rounds: {avg:.1f}")
    # calibrated: ~194 avg rounds; sweep-paced waves sat past 1000 (and
    # the old engine without its sweep never finished)
    assert avg < 500, f"avg {avg:.1f} looks sweep-paced"
    benchmark.extra_info["avg_rounds"] = avg


def test_burst_flush(benchmark):
    """Corollary 16: a node can flush an arbitrary backlog in one wave."""

    def burst():
        cluster = SkueueCluster(n_processes=300, seed=4, shuffle_delivery=False)
        # one node buffers 500 requests in a single round
        for i in range(500):
            cluster.submit(7, INSERT, i)
        start = cluster.runtime.round
        cluster.run_until_done(20_000)
        return cluster.runtime.round - start, cluster.metrics.mean_latency()

    rounds, mean = run_once(benchmark, burst)
    print(f"\n500-request burst: all done in {rounds} rounds (mean {mean:.1f})")
    # a per-request protocol would need >= 500 rounds at the origin alone
    assert rounds < 500
    benchmark.extra_info["burst_rounds"] = rounds
