"""Seeded scenarios: one fully explicit test case per 64-bit seed.

A :class:`Scenario` is *data*: the structure under test, the engine, the
exact operation script (round-stamped ``(round, pid, kind, priority,
uid)`` tuples), the churn script, and the client-abort faults.  It is
expanded deterministically from a single seed by :meth:`Scenario.
from_seed` — the workload mix reuses the generators of
:mod:`repro.experiments.workload` — and is JSON round-trippable, which
is what lets the shrinker mutate it and the fuzzer ship it as an
artifact.

:func:`run_scenario` executes a scenario through the *public* API
(:func:`repro.api.connect`) on the ``sync`` or ``async`` backend, drives
churn through the cluster facade, and verifies the resulting history
with the structure's Definition-1 checker.  Every failure mode becomes a
machine-readable :class:`~repro.verify.violations.Violation`:

* the checker rejects the history  -> ``kind="consistency"``,
* the run never settles in budget  -> ``kind="liveness"``,
* the protocol raises              -> ``kind="crash"``.

Scenarios pinned to the ``"net"`` runner (never drawn from a seed —
selected with ``skueue-fuzz --runner net``) execute over real OS
processes and TCP via :mod:`repro.testing.netrun` and gain a
``crashes`` axis: ``(round, host)`` SIGKILL events next to the client
aborts.  An acknowledged operation missing from the post-crash merged
history becomes a ``clause="lost_record"`` violation (see
:func:`repro.verify.violations.lost_record_violation`).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace

from repro.core.requests import BOTTOM, INSERT, OpRecord
from repro.core.structures import get_structure
from repro.experiments.workload import (
    FixedRateWorkload,
    MixedPriorityWorkload,
    PerNodeWorkload,
)
from repro.sim.delays import (
    AdversarialSkewDelay,
    ExponentialDelay,
    FixedDelay,
    UniformDelay,
)
from repro.sim.metrics import Metrics
from repro.verify.violations import Violation, capture_violation

__all__ = [
    "CHURN_PROFILES",
    "DELAY_POLICIES",
    "NET_HOSTS",
    "NET_RUNNER",
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "serialize_history",
    "history_digest",
]

STRUCTURES = ("queue", "stack", "heap")
#: hermetic simulation runners — the default fuzz axes
RUNNERS = ("sync", "async")
#: the OS-process/TCP runner (explicit opt-in: heavyweight, wall-clock)
NET_RUNNER = "net"
#: hosts a net scenario deploys; crash victims are drawn from this range
NET_HOSTS = 3
#: churn-weight axes for Scenario.from_seed (fuzz CLI --churn)
CHURN_PROFILES = ("default", "heavy")

#: name -> constructor for every delay policy a scenario can pick
DELAY_POLICIES = {
    "fixed": FixedDelay,
    "uniform": UniformDelay,
    "exponential": ExponentialDelay,
    "skew": AdversarialSkewDelay,
}


@dataclass(frozen=True)
class Scenario:
    """One deterministic simulation test case (pure data)."""

    seed: int
    structure: str = "queue"
    runner: str = "sync"
    n_processes: int = 8
    n_priorities: int = 3
    #: delay policy (async runner): name in DELAY_POLICIES + positional args
    delay: tuple = ("uniform", (0.5, 1.5))
    shuffle_delivery: bool = True
    #: op script: (round, pid, kind, priority, uid) — uid keys the item
    ops: tuple = ()
    #: churn script: (round, "join"|"leave", pid)
    churn: tuple = ()
    #: client-abort faults: (round, pid) — pid submits nothing from there on
    aborts: tuple = ()
    #: host-crash faults, net runner only: (round, host) — SIGKILL mid-run
    crashes: tuple = ()
    #: bound on the settle phase (rounds on sync, events on async)
    settle_budget: int = 60_000

    # -- construction --------------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int,
        structure: str | None = None,
        runner: str | None = None,
        churn_profile: str = "default",
    ) -> "Scenario":
        """Expand one 64-bit seed into a scenario, deterministically.

        ``structure``/``runner`` pin those axes (the fuzz CLI's filters);
        left ``None`` they are drawn from the seed like everything else.
        ``churn_profile="heavy"`` layers extra join/leave events on top
        of the base script (drawn from a *derived* RNG, so the rest of
        the expansion stays byte-identical to the default profile) —
        the splice-straddling interleavings behind the PR 10 liveness
        stalls need several membership changes per run to surface.
        """
        if churn_profile not in CHURN_PROFILES:
            raise ValueError(
                f"unknown churn profile {churn_profile!r} "
                f"(expected one of {', '.join(CHURN_PROFILES)})"
            )
        rng = random.Random(f"scenario-{seed}")
        structure = structure or rng.choice(STRUCTURES)
        runner = runner or rng.choice(RUNNERS)
        n_processes = rng.randrange(4, 13)
        if runner == NET_RUNNER:
            # every pid is a real actor on one of NET_HOSTS OS processes:
            # keep the deployment small enough to launch in seconds
            n_processes = rng.randrange(NET_HOSTS, 9)
        n_priorities = rng.randrange(2, 5)
        n_rounds = rng.randrange(6, 21)

        delay_name = rng.choice(sorted(DELAY_POLICIES))
        if delay_name == "fixed":
            delay_args: tuple = (rng.choice((0.5, 1.0, 2.0)),)
        elif delay_name == "uniform":
            lo = rng.choice((0.1, 0.5, 1.0))
            delay_args = (lo, lo * rng.choice((1.0, 3.0, 10.0)))
        elif delay_name == "exponential":
            delay_args = (rng.choice((0.5, 1.0, 2.0)),)
        else:  # skew
            delay_args = (1.0, rng.choice((4.0, 10.0)), rng.choice((0.2, 0.5)))

        # workload mix: reuse the experiment generators
        insert_p = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
        rate = rng.randrange(1, 7)
        kind = rng.choice(("fixed_rate", "per_node", "mixed"))
        if structure == "heap" or kind == "mixed":
            workload = MixedPriorityWorkload(
                n_processes, insert_p, n_priorities=n_priorities,
                requests_per_round=rate, seed=seed,
            )
        elif kind == "fixed_rate":
            workload = FixedRateWorkload(
                n_processes, insert_p, requests_per_round=rate, seed=seed
            )
        else:
            workload = PerNodeWorkload(
                n_processes, min(1.0, rate / n_processes),
                insert_probability=insert_p, seed=seed,
            )
        ops = []
        uid = 0
        for round_no in range(n_rounds):
            for pid, op_kind, *rest in workload.requests_for_round():
                priority = rest[0] if (rest and structure == "heap") else 0
                ops.append((round_no, pid, op_kind, priority, uid))
                uid += 1

        # churn script: a few joins/leaves sprinkled over the run
        churn = []
        next_pid = n_processes
        if rng.random() < 0.5:
            for _ in range(rng.randrange(1, 4)):
                round_no = rng.randrange(1, n_rounds)
                if rng.random() < 0.5:
                    churn.append((round_no, "join", next_pid))
                    next_pid += 1
                else:
                    churn.append((round_no, "leave", rng.randrange(n_processes)))
            churn.sort()
        if churn_profile == "heavy" and runner != NET_RUNNER:
            heavy_rng = random.Random(f"churn-heavy-{seed}")
            for _ in range(heavy_rng.randrange(3, 7)):
                round_no = heavy_rng.randrange(1, n_rounds)
                if heavy_rng.random() < 0.5:
                    churn.append((round_no, "join", next_pid))
                    next_pid += 1
                else:
                    churn.append(
                        (round_no, "leave", heavy_rng.randrange(n_processes))
                    )
            churn.sort()

        # client-abort faults: a pid goes silent mid-run
        aborts = []
        if rng.random() < 0.3:
            for _ in range(rng.randrange(1, 3)):
                aborts.append(
                    (rng.randrange(1, n_rounds), rng.randrange(n_processes))
                )
            aborts.sort()

        # host-crash faults (net runner only, which is always pinned so
        # this draw never perturbs sim-runner expansion): at most one
        # SIGKILL per scenario — k=2 replication tolerates one crash,
        # and NET_HOSTS-host deployments only have one to spare
        crashes = []
        if runner == NET_RUNNER:
            # pid-level churn needs the TCP join/leave driver the net
            # runner doesn't script; the crash axis replaces it
            churn = []
            if rng.random() < 0.7:
                crashes.append(
                    (rng.randrange(1, max(2, n_rounds - 1)),
                     rng.randrange(NET_HOSTS))
                )

        return cls(
            seed=seed,
            structure=structure,
            runner=runner,
            n_processes=n_processes,
            n_priorities=n_priorities,
            delay=(delay_name, delay_args),
            shuffle_delivery=True,
            ops=tuple(ops),
            churn=tuple(churn),
            aborts=tuple(aborts),
            crashes=tuple(crashes),
        )

    # -- derived views -------------------------------------------------------
    @property
    def n_rounds(self) -> int:
        last_op = max((op[0] for op in self.ops), default=0)
        last_churn = max((ev[0] for ev in self.churn), default=0)
        last_crash = max((ev[0] for ev in self.crashes), default=0)
        return max(last_op, last_churn, last_crash) + 1

    def with_(self, **changes) -> "Scenario":
        """A mutated copy (the shrinker's workhorse)."""
        return replace(self, **changes)

    # -- (de)serialisation ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "structure": self.structure,
            "runner": self.runner,
            "n_processes": self.n_processes,
            "n_priorities": self.n_priorities,
            "delay": [self.delay[0], list(self.delay[1])],
            "shuffle_delivery": self.shuffle_delivery,
            "ops": [list(op) for op in self.ops],
            "churn": [list(ev) for ev in self.churn],
            "aborts": [list(ab) for ab in self.aborts],
            "crashes": [list(ev) for ev in self.crashes],
            "settle_budget": self.settle_budget,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        return cls(
            seed=data["seed"],
            structure=data["structure"],
            runner=data["runner"],
            n_processes=data["n_processes"],
            n_priorities=data["n_priorities"],
            delay=(data["delay"][0], tuple(data["delay"][1])),
            shuffle_delivery=data["shuffle_delivery"],
            ops=tuple(tuple(op) for op in data["ops"]),
            churn=tuple(tuple(ev) for ev in data["churn"]),
            aborts=tuple(tuple(ab) for ab in data["aborts"]),
            crashes=tuple(tuple(ev) for ev in data.get("crashes", ())),
            settle_budget=data.get("settle_budget", 60_000),
        )


@dataclass
class ScenarioResult:
    """Everything one scenario execution produced."""

    scenario: Scenario
    violation: Violation | None
    records: list[OpRecord] = field(default_factory=list)
    submitted: int = 0
    skipped: int = 0
    #: the cluster's metrics and final clock (sim runners only): what
    #: ``skueue-fuzz digest`` prints beside the history
    metrics: Metrics | None = None
    clock: float = 0.0

    @property
    def failed(self) -> bool:
        return self.violation is not None


def _delay_policy(scenario: Scenario):
    name, args = scenario.delay
    return DELAY_POLICIES[name](*args)


def run_scenario(scenario: Scenario, schedule_hint=None) -> ScenarioResult:
    """Execute ``scenario`` on its backend; never raises for protocol
    failures — they come back as the result's ``violation``.

    ``schedule_hint`` (a recorder or replayer from
    :mod:`repro.testing.schedule`) is installed on the engine before the
    first event.  Net-runner scenarios execute over OS processes and
    TCP instead (wall-clock scheduling: the hint does not apply).
    """
    if scenario.runner == NET_RUNNER:
        from repro.testing.netrun import run_net_scenario

        return run_net_scenario(scenario)

    from repro.api import connect

    spec = get_structure(scenario.structure)
    session = connect(
        scenario.runner,
        structure=scenario.structure,
        n_processes=scenario.n_processes,
        seed=scenario.seed,
        n_priorities=scenario.n_priorities,
        shuffle_delivery=scenario.shuffle_delivery,
        delay_policy=_delay_policy(scenario) if scenario.runner == "async" else None,
    )
    with session:
        cluster = session.cluster
        cluster.runtime.schedule_hint = schedule_hint
        churn_by_round: dict[int, list] = {}
        for round_no, event, pid in scenario.churn:
            churn_by_round.setdefault(round_no, []).append((event, pid))
        ops_by_round: dict[int, list] = {}
        for op in scenario.ops:
            ops_by_round.setdefault(op[0], []).append(op)
        aborted: dict[int, int] = {}
        for round_no, pid in scenario.aborts:
            aborted[pid] = min(round_no, aborted.get(pid, round_no))

        submitted = skipped = 0

        def result(violation: Violation | None) -> ScenarioResult:
            return ScenarioResult(
                scenario,
                violation,
                list(cluster.records),
                submitted,
                skipped,
                cluster.metrics,
                cluster.runtime.now,
            )

        try:
            for round_no in range(scenario.n_rounds):
                for event, pid in churn_by_round.get(round_no, ()):
                    if event == "join" and cluster.can_join(pid):
                        cluster.join(new_pid=pid)
                    elif event == "leave" and cluster.can_leave(pid):
                        cluster.leave(pid)
                    else:
                        skipped += 1
                for op in ops_by_round.get(round_no, ()):
                    _, pid, kind, priority, uid = op
                    if aborted.get(pid, scenario.n_rounds + 1) <= round_no:
                        skipped += 1  # client aborted: remaining ops vanish
                        continue
                    if not cluster.can_submit(pid):
                        skipped += 1  # pid left (or never joined): no-op
                        continue
                    item = f"item-{uid}" if kind == INSERT else None
                    session.submit(kind, item, pid=pid, priority=priority)
                    submitted += 1
                cluster.step()
            cluster.run_until_settled(scenario.settle_budget)
        except RuntimeError as exc:
            return result(
                Violation(
                    kind="liveness",
                    clause="stalled",
                    message=str(exc),
                    structure=scenario.structure,
                )
            )
        except Exception as exc:  # noqa: BLE001 - any protocol raise is a finding
            return result(
                Violation(
                    kind="crash",
                    clause=type(exc).__name__,
                    message=str(exc),
                    structure=scenario.structure,
                )
            )
        return result(
            capture_violation(
                spec.check_history, list(cluster.records), scenario.structure
            )
        )


# -- canonical history serialisation ----------------------------------------


def serialize_history(records: list[OpRecord]) -> list[list]:
    """Flatten records into a canonical JSON-stable list (sorted by
    req_id) — the unit of byte-for-byte replay comparison."""
    out = []
    for rec in sorted(records, key=lambda r: r.req_id):
        if rec.result is None:
            result: list = ["none"]
        elif rec.result is BOTTOM:
            result = ["bot"]
        else:
            result = ["el", rec.result[0], rec.result[1]]
        out.append(
            [
                rec.req_id,
                rec.pid,
                rec.idx,
                "ins" if rec.kind == INSERT else "rem",
                rec.item,
                rec.priority,
                rec.value,
                result,
                bool(rec.completed),
                bool(rec.local_match),
            ]
        )
    return out


def history_digest(records: list[OpRecord]) -> str:
    """SHA-256 over the canonical serialisation."""
    payload = json.dumps(serialize_history(records), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
