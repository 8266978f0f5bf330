"""The shapes of the paper's evaluation (1802.07504 §V–VII) on our structures.

Every check drives the deterministic sync simulator and bounds simulated
rounds, so a result repeats to the digit on any machine.  The Figure
2/3/4 and batch-size sweeps are marked ``slow`` (nightly CI); the rest
runs in tier-1.

The figure thresholds are **calibrated, not constant**: the paper's
asymptotic claims (logarithmic growth, coinciding probability curves)
only emerge at its 10^4+ sizes, and at the sizes these sweeps run the
constants shift with the schedule.  Rather than hard-coding a slack
factor, each figure check measures its own baseline — the smallest
sweep sizes of the same run — and bounds the rest of the sweep relative
to that measurement (:func:`fitted_growth_bound`,
:func:`measured_band_tolerance`).
"""

from __future__ import annotations

import math
import random
import statistics

import pytest

from repro.core.cluster import SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.experiments.figures import PROBABILITIES, figure2, figure3, figure4
from repro.experiments.harness import run_experiment
from repro.experiments.workload import (
    FixedRateWorkload,
    MixedPriorityWorkload,
    PerNodeWorkload,
)
from repro.util.rng import RngStreams

#: slack multipliers on top of the measured baselines: generous enough
#: to absorb schedule noise, tight enough that a superlinear blow-up or
#: a newly diverging curve family still fails
GROWTH_SLACK = 1.5
BAND_SLACK = 1.25


def fitted_growth_bound(by, sizes, p, slack: float = GROWTH_SLACK) -> float:
    """Upper latency bound for the largest size, from a measured baseline.

    Fits the power-law exponent observed across every size *except the
    largest* (the baseline measurement: smallest to second-largest) and
    extrapolates it to the largest size, times ``slack``.  The widest
    pair is used deliberately: at these sizes the latency curve has
    regime changes mid-sweep, and the check's job is to flag the
    *largest* size leaving the trend the rest of the sweep established —
    not to re-litigate the constants of the smaller sizes against each
    other.  The exponent is additionally capped at 2: whatever the
    baseline says, worse-than-quadratic growth means the protocol
    degenerated to per-request broadcasts and must fail.
    """
    if len(sizes) < 3:
        raise ValueError("need >= 3 sweep sizes to calibrate a growth trend")
    lo = max(by[(sizes[0], p)], 1e-9)
    anchor = max(by[(sizes[-2], p)], 1e-9)
    exponent = math.log(anchor / lo) / math.log(sizes[-2] / sizes[0])
    exponent = min(max(exponent, 0.0), 2.0)
    return lo * (sizes[-1] / sizes[0]) ** exponent * slack


def measured_band_tolerance(by, sizes, probabilities,
                            slack: float = BAND_SLACK) -> float:
    """Allowed max/min ratio of a curve family, from a measured baseline.

    The paper reports the p-curves "roughly coincide"; how roughly
    depends on the schedule at small sizes.  Take the dispersion the
    *smallest* size actually exhibits and allow ``slack`` on top of it
    everywhere else (never below ``slack`` itself, so a perfectly tight
    baseline does not demand perfection at every size).
    """
    band = [by[(sizes[0], p)] for p in probabilities]
    measured = max(band) / max(min(band), 1e-9)
    return max(measured, 1.0) * slack


def _avg_rounds(rows, key):
    return {key(r): r["avg_rounds"] for r in rows}


# -- Theorem 15 / Corollary 16: O(log n) rounds per request ------------------

@pytest.mark.slow
def test_latency_scales_logarithmically():
    rows = []
    for n in (200, 800, 3200):
        workload = FixedRateWorkload(n, 0.5, requests_per_round=10, seed=9)
        rows.append((n, run_experiment(workload, n, rounds=120, seed=9)
                     .mean_rounds_per_request))
    (n_first, first), (n_last, last) = rows[0], rows[-1]
    size_growth = n_last / n_first
    assert last / first < size_growth ** 0.5, (
        f"x{size_growth} nodes grew latency x{last / first:.2f}: {rows}"
    )


def test_waves_advance_on_pushed_wakes():
    """Wave pacing must come from pushed wakes, not a periodic sweep.

    Before the event-driven engine, waves only advanced when a periodic
    whole-system sweep happened to re-check a waiting node, so
    per-request latency was a multiple of the sweep period (the Figure 2
    queue point at n=1000 sat at ~1488 avg rounds).  The simulators run
    no sweep and readiness is pushed: an arriving batch or SERVE wakes
    its node.  Without the arrival wake this reads ~3711 rounds, without
    the SERVE wake the run stalls.
    """
    workload = FixedRateWorkload(800, 0.5, requests_per_round=10, seed=9)
    avg = run_experiment(workload, 800, rounds=120, seed=9).mean_rounds_per_request
    # calibrated: ~194 avg rounds; sweep-paced waves sat past 1000
    assert avg < 500, f"avg {avg:.1f} looks sweep-paced"


def test_batching_keeps_latency_flat_in_load():
    """Corollary 16: batching absorbs load, so latency stays near the
    O(log n) wave time as the offered load grows twelvefold."""
    n, rounds = 120, 150
    latency = {}
    for rate in (4, 16, 48):
        cluster = SkueueCluster(n, seed=2, shuffle_delivery=False)
        rng = random.Random("ablation-2")
        for _ in range(rounds):
            for _ in range(rate):
                pid = rng.randrange(n)
                cluster.submit(pid, INSERT if rng.random() < 0.5 else REMOVE)
            cluster.step()
        cluster.run_until_done(400_000)
        latency[rate] = cluster.metrics.mean_latency()
    assert latency[48] < latency[4] * 2.0, latency


# -- Lemma 4 / Corollary 19: consistent hashing spreads elements fairly ------

@pytest.mark.parametrize("n,elements", [(60, 1200), (200, 2400)])
def test_dht_spreads_elements_fairly(n, elements):
    cluster = SkueueCluster(n_processes=n, seed=11, shuffle_delivery=False)
    rng = RngStreams(11).py("fairness")
    per_round = max(1, elements // 120)
    injected = 0
    while injected < elements:
        for _ in range(min(per_round, elements - injected)):
            cluster.submit(rng.randrange(n), INSERT)
            injected += 1
        cluster.step()
    cluster.run_until_done(60_000)
    occupancies = cluster.occupancies()
    assert sum(occupancies) == elements
    mean = elements / len(occupancies)
    # no node hoards the queue: max occupancy stays within a small
    # multiple of the mean (consistent hashing balance, Lemma 4)
    assert max(occupancies) < mean * 14 + 10, (
        max(occupancies), mean, statistics.pstdev(occupancies))


# -- Skeap: the heap rides the queue's waves ---------------------------------

def test_heap_cost_tracks_the_queue_flat_in_classes():
    """A heap batch is ``P + 1`` runs, so the per-request round cost
    stays within a small factor of the queue's and is flat in the class
    count: the classes change the batch layout, not the wave depth."""
    n, rounds = 24, 60
    queue_rounds = run_experiment(
        FixedRateWorkload(n, 0.5, requests_per_round=6, seed=2), n, rounds, seed=2,
    ).mean_rounds_per_request
    heap_rounds = {}
    for n_priorities in (1, 2, 4, 8):
        workload = MixedPriorityWorkload(
            n, 0.5, n_priorities=n_priorities, requests_per_round=6, seed=2,
        )
        heap_rounds[n_priorities] = run_experiment(
            workload, n, rounds, seed=2, structure="heap", n_priorities=n_priorities,
        ).mean_rounds_per_request
    for n_priorities, avg in heap_rounds.items():
        assert avg < queue_rounds * 2.0, (
            f"P={n_priorities}: heap {avg:.1f} vs queue {queue_rounds:.1f}"
        )
    assert max(heap_rounds.values()) < min(heap_rounds.values()) * 1.5, (
        f"heap cost not flat across class counts: {heap_rounds}"
    )


# -- Theorem 17: update phases integrate many joins/leaves in O(log n) -------

def _settle_rounds(cluster, start, pending, max_rounds):
    """Rounds from ``start`` until ``pending()`` is empty and no node is
    in an update phase."""
    cluster.runtime.run_until(
        lambda: not pending()
        and not any(node.epoch is not None for node in cluster.runtime.actors.values()),
        max_rounds=max_rounds,
    )
    return cluster.runtime.round - start


def test_membership_settles_logarithmically():
    join_rounds = {}
    for n in (100, 400):
        changes = max(4, n // 20)
        joined = SkueueCluster(n_processes=n, seed=5, shuffle_delivery=False)
        joined.step(5)
        start = joined.runtime.round
        for _ in range(changes):
            joined.join()
        join_rounds[n] = _settle_rounds(joined, start, lambda: joined.joining_pids, 60_000)
        assert len(joined.cycle_vids()) == 3 * (n + changes)

        left = SkueueCluster(n_processes=n, seed=6, shuffle_delivery=False)
        left.step(5)
        start = left.runtime.round
        for pid in range(changes):
            left.leave(pid)
        _settle_rounds(left, start, lambda: left.leaving_pids, 120_000)
        assert len(left.cycle_vids()) == 3 * (n - changes)
    # x4 size growth must not grow settle time proportionally (log-ish)
    growth = join_rounds[400] / join_rounds[100]
    assert growth < 4 ** 0.75, f"settle rounds grew too fast: {join_rounds}"


# -- Theorems 18 and 20: batch sizes ------------------------------------------

@pytest.mark.slow
def test_batch_sizes():
    """Queue batches stay O(log n) even at one request per node per
    round; stack batches are exactly ``[pops, pushes]`` at any rate
    (local annihilation, Section VI)."""
    for n in (200, 800):
        for structure in ("queue", "stack"):
            workload = PerNodeWorkload(n, rate=1.0, insert_probability=0.5, seed=3)
            result = run_experiment(workload, n, rounds=60, structure=structure, seed=3)
            if structure == "stack":
                assert result.max_batch_len <= 2, (n, result.max_batch_len)
            else:
                bound = 14 * math.log2(3 * n)
                assert result.max_batch_len < bound, (n, result.max_batch_len, bound)


# -- Figures 2-4 ---------------------------------------------------------------

@pytest.mark.slow
def test_figure2_queue():
    """Figure 2 (Section VII-B): latency grows moderately in n, the
    curves for enqueue probability p >= 0.5 roughly coincide, and
    p < 0.5 is faster (the queue is empty most of the time, so DEQUEUEs
    return ⊥ without the DHT round-trip)."""
    rows = figure2()
    sizes = sorted({r["n"] for r in rows})
    by = _avg_rounds(rows, lambda r: (r["n"], r["p"]))

    # growth: the largest n is slower than the smallest, but no worse
    # than the trend measured between the smaller sizes (+ slack)
    for p in (1.0, 0.5):
        lo, hi = by[(sizes[0], p)], by[(sizes[-1], p)]
        assert hi > lo * 0.9, f"p={p}: latency did not grow with n"
        bound = fitted_growth_bound(by, sizes, p)
        assert hi < bound, (
            f"p={p}: growth left its measured trend ({lo} -> {hi}, "
            f"calibrated bound {bound:.1f})"
        )
    # empty-queue regime is faster at every size
    for n in sizes:
        assert by[(n, 0.0)] < by[(n, 1.0)], f"n={n}: p=0 not faster than p=1"
        assert by[(n, 0.25)] < by[(n, 0.75)], f"n={n}: p=.25 not faster than p=.75"
    # the p >= 0.5 curves coincide within the dispersion the smallest
    # size itself exhibits (measured baseline, + slack)
    hi_band_ps = (1.0, 0.75, 0.5)
    tolerance = measured_band_tolerance(by, sizes, hi_band_ps)
    for n in sizes:
        hi_band = [by[(n, p)] for p in hi_band_ps]
        assert max(hi_band) < min(hi_band) * tolerance, (
            f"n={n}: p>=0.5 curves diverge beyond the measured "
            f"baseline (tolerance {tolerance:.2f})"
        )


@pytest.mark.slow
def test_figure3_stack():
    """Figure 3 (Section VII-C): every p > 0 curve roughly coincides and
    sits *above* the queue's (the stage-4 barrier delays the next
    aggregation wave); p = 0 (pure POPs on an empty stack) matches the
    queue's p = 0 curve."""
    rows = figure3()
    sizes = sorted({r["n"] for r in rows})
    by = _avg_rounds(rows, lambda r: (r["n"], r["p"]))

    # growth of the loaded curve stays on its measured trend
    bound = fitted_growth_bound(by, sizes, 0.5)
    assert by[(sizes[-1], 0.5)] < bound, (
        f"growth left its measured trend (bound {bound:.1f})"
    )
    # the p>0 curves form one band whose width is calibrated from the
    # smallest size's own dispersion
    n_large = sizes[-1]
    loaded_ps = tuple(p for p in PROBABILITIES if p > 0)
    tolerance = measured_band_tolerance(by, sizes, loaded_ps)
    band = [by[(n_large, p)] for p in loaded_ps]
    assert max(band) < min(band) * tolerance, (
        f"n={n_large}: p>0 curves diverge beyond the measured baseline "
        f"(tolerance {tolerance:.2f})"
    )
    # pop-only curve is the fastest (no DHT operations at all)
    for n in sizes:
        assert by[(n, 0.0)] < min(by[(n, p)] for p in loaded_ps)

    # the stack's loaded curve sits above the queue's at the same size
    # (stage-4 barrier), while the p=0 curves agree within 20%
    queue_by = _avg_rounds(figure2(sizes=[n_large], probabilities=(0.5, 0.0)),
                           lambda r: (r["n"], r["p"]))
    assert by[(n_large, 0.5)] > queue_by[(n_large, 0.5)], (
        "stack not slower than queue at p=0.5")
    ratio = by[(n_large, 0.0)] / queue_by[(n_large, 0.0)]
    assert 0.8 < ratio < 1.2, f"p=0 stack/queue mismatch: {ratio:.2f}"


@pytest.mark.slow
def test_figure4_load_sweep():
    """Figure 4 (Section VII-C): at fixed n with a 50/50 mix, the queue
    stays roughly flat as the per-node rate grows (batching absorbs
    load), while the stack *improves* — at high rates most PUSH/POP
    pairs annihilate locally and answer immediately."""
    rows = figure4()
    rates = sorted({r["rate"] for r in rows})
    stack = [r for r in rows if r["structure"] == "stack"]
    stack_rounds = _avg_rounds(stack, lambda r: r["rate"])
    queue_rounds = _avg_rounds(
        [r for r in rows if r["structure"] == "queue"], lambda r: r["rate"])

    assert stack_rounds[rates[-1]] < stack_rounds[rates[0]] * 0.6, (
        f"stack did not speed up with load: {stack_rounds}"
    )
    assert stack_rounds[rates[-1]] < queue_rounds[rates[-1]], (
        "stack not faster at high load")
    assert max(queue_rounds.values()) < min(queue_rounds.values()) * 2.0, (
        f"queue latency not flat: {queue_rounds}"
    )
    annihilated = {r["rate"]: r["annihilated"] for r in stack}
    assert annihilated[rates[-1]] > annihilated[rates[0]]
