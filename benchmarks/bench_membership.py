"""Theorem 17: update phases integrate many joins/leaves in O(log n) rounds."""

from __future__ import annotations

from conftest import run_once

from repro.experiments.figures import full_scale
from repro.experiments.tables import render_table
from repro.core.cluster import SkueueCluster


def _join_wave(n: int, joiners: int, seed: int = 5) -> dict:
    cluster = SkueueCluster(n_processes=n, seed=seed, shuffle_delivery=False)
    cluster.step(5)
    start = cluster.runtime.round
    for _ in range(joiners):
        cluster.join()
    cluster.runtime.run_until(
        lambda: not cluster.joining_pids
        and not any(node.epoch is not None for node in cluster.runtime.actors.values()),
        max_rounds=60_000,
    )
    settle = cluster.runtime.round - start
    assert len(cluster.cycle_vids()) == 3 * (n + joiners)
    return {"n": n, "joiners": joiners, "settle_rounds": settle}


def _leave_wave(n: int, leavers: int, seed: int = 6) -> dict:
    cluster = SkueueCluster(n_processes=n, seed=seed, shuffle_delivery=False)
    cluster.step(5)
    start = cluster.runtime.round
    for pid in range(leavers):
        cluster.leave(pid)
    cluster.runtime.run_until(
        lambda: not cluster.leaving_pids
        and not any(node.epoch is not None for node in cluster.runtime.actors.values()),
        max_rounds=120_000,
    )
    settle = cluster.runtime.round - start
    assert len(cluster.cycle_vids()) == 3 * (n - leavers)
    return {"n": n, "leavers": leavers, "settle_rounds": settle}


def _sweep():
    sizes = [200, 800, 3200] if full_scale() else [100, 400]
    rows = []
    for n in sizes:
        join_row = _join_wave(n, joiners=max(4, n // 20))
        leave_row = _leave_wave(n, leavers=max(4, n // 20))
        rows.append({**join_row, "kind": "join"})
        rows.append(
            {
                "n": leave_row["n"],
                "joiners": leave_row["leavers"],
                "settle_rounds": leave_row["settle_rounds"],
                "kind": "leave",
            }
        )
    return rows


def test_membership_settles_logarithmically(benchmark):
    rows = run_once(benchmark, _sweep)
    print()
    print(render_table(rows))
    joins = [r for r in rows if r["kind"] == "join"]
    # x4 size growth must not grow settle time proportionally (log-ish)
    growth = joins[-1]["settle_rounds"] / joins[0]["settle_rounds"]
    size_growth = joins[-1]["n"] / joins[0]["n"]
    assert growth < size_growth ** 0.75, f"settle rounds grew too fast: {growth:.1f}x"
    benchmark.extra_info["rows"] = rows
