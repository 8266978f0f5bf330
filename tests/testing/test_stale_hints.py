"""A wrong owner hint costs hops, never an op.

A TCP host hints each PUT/GET's first hop by its cluster map
(``ClusterContext.key_owner``), and the map can be stale: the hinted
vnode may be a pending joiner, a replaced or already dumped node, or the
sender itself.  Here every fuzz scenario runs on the simulators with a
hint drawn at random from ``runtime.actors`` — all of those at once, far
more often than a host's map is ever wrong — and every cell must still
verify and drain.
"""

from __future__ import annotations

import random

import pytest

from repro.core.protocol import ClusterContext
from repro.testing.scenario import CHURN_PROFILES, RUNNERS, STRUCTURES, Scenario, run_scenario

#: what the drawn hint named, per call: ``(joining, replaced, dumped)``
Drawn = tuple[bool, bool, bool]


def random_hints(monkeypatch, seed: int) -> list[Drawn]:
    """Every cluster built from here on hints at a seeded random actor;
    returns the log of what each hint named."""
    drawn: list[Drawn] = []
    init = ClusterContext.__init__

    def hinted(ctx, runtime, *args, **kwargs):
        init(ctx, runtime, *args, **kwargs)
        rng = random.Random(seed)

        def key_owner(key: float) -> int:
            vid = rng.choice(list(runtime.actors))
            node = runtime.actors[vid]
            drawn.append((node.joining, node.replaced, node.dumped))
            return vid

        ctx.key_owner = key_owner

    monkeypatch.setattr(ClusterContext, "__init__", hinted)
    return drawn


def sweep(seeds) -> list[tuple[str, bool]]:
    """Every failing cell as ``(label, lost)``: ``lost`` when an op was
    lost — a violated history, or a stall that left an op valued but
    never completed (its PUT/GET went nowhere)."""
    failed = []
    for seed in seeds:
        for structure in STRUCTURES:
            for runner in RUNNERS:
                for churn in CHURN_PROFILES:
                    result = run_scenario(Scenario.from_seed(
                        seed, structure=structure, runner=runner,
                        churn_profile=churn))
                    if not result.failed:
                        continue
                    lost = result.violation.clause != "stalled" or any(
                        rec.value is not None and not rec.completed
                        for rec in result.records)
                    failed.append((f"{seed} {structure}/{runner}/{churn}: "
                                   f"{result.violation.clause}", lost))
    return failed


def test_random_hints_lose_no_op(monkeypatch):
    drawn = random_hints(monkeypatch, seed=1)
    assert sweep(range(30)) == []
    # the sweep reached each kind of wrong hint it claims to
    assert any(joining for joining, _, _ in drawn)
    assert any(replaced for _, replaced, _ in drawn)
    assert any(dumped for _, _, dumped in drawn)


@pytest.mark.slow
def test_random_hints_lose_no_op_wide(monkeypatch):
    """The wide sweep also meets stalls that lose no op: a wave left
    without a root, or membership that never quiesces, with every op
    either done or never valued.  The hints' timing moves which cells
    hit those (ROADMAP, "Zero stalling cells"); they are the wave and
    membership engines' findings, not routing's."""
    random_hints(monkeypatch, seed=2)
    assert [label for label, lost in sweep(range(500)) if lost] == []
