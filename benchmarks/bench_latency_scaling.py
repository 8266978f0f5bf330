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
from repro.sim.process import SAFETY_TICK
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
    """Wave pacing must come from pushed wakes, not the TIMEOUT sweep.

    Before the event-driven redesign, disabling the sweep
    (``safety_tick=0``) stalled the pipeline: waves only advanced when
    the periodic whole-system sweep happened to re-check a waiting node,
    so per-request latency was a multiple of the sweep period (the fig2
    queue point at n=1000 sat at ~1488 avg rounds).  Now readiness is
    pushed, so the no-sweep run must match the default run closely; a
    regression to sweep-paced waves shows up as a large ratio (~sweep
    period per wave hop) long before it trips the absolute anchor.
    """

    def compare():
        out = {}
        for name, safety_tick in (("default", SAFETY_TICK), ("no_sweep", 0)):
            workload = FixedRateWorkload(800, 0.5, requests_per_round=10, seed=9)
            result = run_experiment(workload, 800, rounds=120, seed=9,
                                    safety_tick=safety_tick)
            out[name] = result.mean_rounds_per_request
        return out

    avg = run_once(benchmark, compare)
    ratio = avg["no_sweep"] / avg["default"]
    print(f"\nn=800 avg rounds: default={avg['default']:.1f} "
          f"no_sweep={avg['no_sweep']:.1f} (ratio {ratio:.2f})")
    # calibrated: both sit at ~194 avg rounds; sweep-paced waves would
    # push the no-sweep run past 1000 (and the old engine never finished)
    assert ratio < 1.25, f"no-sweep run degraded x{ratio:.2f} vs default"
    assert avg["no_sweep"] < 500, (
        f"no-sweep avg {avg['no_sweep']:.1f} looks sweep-paced"
    )
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
