"""Failure injection: extreme delays, reordering, and churn together.

The paper's model forbids message loss/duplication, so "failure" here
means everything its adversary is allowed: unbounded skew, systematic
per-edge slowness, reordering bursts — combined with membership churn.
"""

import random

import pytest

from repro import SkueueCluster
from repro.core.requests import INSERT, REMOVE
from repro.sim.delays import AdversarialSkewDelay, ExponentialDelay, UniformDelay
from tests.conftest import verify


@pytest.mark.parametrize(
    "policy",
    [
        UniformDelay(0.05, 8.0),  # 160x reorder window
        ExponentialDelay(2.0),  # unbounded stragglers
        AdversarialSkewDelay(factor=25.0, slow_fraction=0.3),
    ],
    ids=["uniform-wide", "exponential", "adversarial-skew"],
)
def test_queue_consistent_under_extreme_delays(policy):
    c = SkueueCluster(n_processes=8, seed=13, runner="async", delay_policy=policy)
    rng = random.Random(13)
    for i in range(60):
        pid = rng.randrange(8)
        if rng.random() < 0.5:
            c.submit(pid, INSERT, i)
        else:
            c.submit(pid, REMOVE)
        c.step(rng.randrange(2))
    c.run_until_done()
    verify(c)


@pytest.mark.parametrize(
    "policy",
    [UniformDelay(0.05, 8.0), AdversarialSkewDelay(factor=25.0)],
    ids=["uniform-wide", "adversarial-skew"],
)
def test_stack_consistent_under_extreme_delays(policy):
    # the stage-4 barrier is exactly what the adversary attacks here
    c = SkueueCluster(
        n_processes=8, structure="stack", seed=14, runner="async", delay_policy=policy
    )
    rng = random.Random(14)
    for i in range(60):
        pid = rng.randrange(8)
        if rng.random() < 0.5:
            c.submit(pid, INSERT, i)
        else:
            c.submit(pid, REMOVE)
        c.step(rng.randrange(2))
    c.run_until_done()
    verify(c)


def test_churn_under_async_delays():
    c = SkueueCluster(
        n_processes=8,
        seed=15,
        runner="async",
        delay_policy=UniformDelay(0.2, 3.0),
    )
    rng = random.Random(15)
    for i in range(150):
        if rng.random() < 0.015:
            c.join()
        if rng.random() < 0.01:
            candidates = c.live_pids()
            if len(candidates) > 4:
                c.leave(rng.choice(candidates))
        if rng.random() < 0.4:
            pid = rng.choice(c.live_pids())
            if rng.random() < 0.5:
                c.submit(pid, INSERT, i)
            else:
                c.submit(pid, REMOVE)
        c.step()
    c.run_until_settled(max_rounds=3_000_000)
    verify(c)
    assert len(c.cycle_vids()) == 3 * len(c.members)


def test_gets_outrun_puts_and_park():
    """Directly exercise Section III-F: slow PUT edges, fast GET edges."""
    c = SkueueCluster(
        n_processes=6,
        seed=16,
        runner="async",
        delay_policy=AdversarialSkewDelay(factor=40.0, slow_fraction=0.5),
    )
    # enqueue and dequeue in the same wave: the GET may race its PUT
    for i in range(10):
        c.submit(i % 6, INSERT, i)
        c.submit((i + 3) % 6, REMOVE)
    c.run_until_done()
    verify(c)
