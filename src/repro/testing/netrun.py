"""Execute a scenario over real OS processes and TCP — the fuzzer's
``"net"`` runner, and the home of the ``lost_record`` verdict.

:func:`run_net_scenario` launches a :data:`~repro.testing.scenario.
NET_HOSTS`-host deployment, plays the scenario's op script round by
round through :class:`~repro.net.client.SkueueClient`, and injects the
``crashes`` axis with :meth:`NetDeployment.kill_host` — SIGKILL, no
drain.  Immediately before each kill it snapshots the req_ids the
client has seen acknowledged: with ack-gated DONE and k=2 record
replication those operations are *promised* to survive, so any of them
missing from the merged post-crash history is reported as a
``clause="lost_record"`` violation (see
:func:`repro.verify.violations.lost_record_violation`) rather than
whatever secondary checker clause the hole would trip.

Unlike the sim runners there is no deterministic schedule here — the
interleaving is wall-clock — so traces of net failures carry an empty
schedule and replaying one re-rolls the race (the scenario script
itself is still exact).  The shrinker is skipped for the same reason:
every probe would cost a multi-second deployment launch.

Everything in this module is behind a function boundary so importing
:mod:`repro.testing` (or the scenario module) stays free of
``repro.net`` — tier-1 tests never touch sockets.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.requests import INSERT
from repro.core.structures import get_structure
from repro.testing.scenario import NET_HOSTS, Scenario, ScenarioResult
from repro.verify.violations import (
    Violation,
    capture_violation,
    lost_record_violation,
)

__all__ = ["run_net_scenario"]

#: wall-clock bound on the post-script settle (wait_all + collect)
SETTLE_TIMEOUT = 120.0


async def _drive(deployment, client, scenario: Scenario):
    """Play the scenario script; returns (acked_guaranteed, submitted,
    skipped) — acked_guaranteed is the union of pre-kill ack snapshots."""
    heap = scenario.structure == "heap"
    ops_by_round: dict[int, list] = {}
    for op in scenario.ops:
        ops_by_round.setdefault(op[0], []).append(op)
    crashes_by_round: dict[int, list[int]] = {}
    for round_no, host in scenario.crashes:
        crashes_by_round.setdefault(round_no, []).append(host)
    aborted: dict[int, int] = {}
    for round_no, pid in scenario.aborts:
        aborted[pid] = min(round_no, aborted.get(pid, round_no))

    loop = asyncio.get_running_loop()
    submitted_ids: list[int] = []
    acked_guaranteed: set[int] = set()
    skipped = 0
    for round_no in range(scenario.n_rounds):
        for host in crashes_by_round.get(round_no, ()):
            if host not in deployment.host_map:
                skipped += 1  # already dead (shrunk/duplicated event)
                continue
            acked_guaranteed.update(
                req for req in submitted_ids if client.is_done(req)
            )
            await loop.run_in_executor(
                None, lambda h=host: deployment.kill_host(h, timeout=90.0)
            )
        for op in ops_by_round.get(round_no, ()):
            _, pid, kind, priority, uid = op
            if aborted.get(pid, scenario.n_rounds + 1) <= round_no:
                skipped += 1  # client aborted: remaining ops vanish
                continue
            if client.cluster is not None and client.cluster.owner_of(pid) is None:
                skipped += 1  # pid died with its evicted host: no-op
                continue
            try:
                if kind == INSERT:
                    if heap:
                        req = await client.insert(pid, f"item-{uid}", priority)
                    else:
                        req = await client.enqueue(pid, f"item-{uid}")
                else:
                    req = await client.dequeue(pid)
                submitted_ids.append(req)
            except (ConnectionError, OSError, KeyError):
                skipped += 1  # raced the crash window: real clients retry
        await asyncio.sleep(0.005)
    return acked_guaranteed, submitted_ids, skipped


def run_net_scenario(scenario: Scenario, schedule_hint=None) -> ScenarioResult:
    """Execute ``scenario`` over a real TCP deployment; protocol failures
    come back as the result's ``violation`` (``schedule_hint`` is
    accepted for signature parity and ignored — wall-clock runner)."""
    from repro.net.client import SkueueClient
    from repro.net.launcher import launch_local

    spec = get_structure(scenario.structure)

    async def scenario_body(deployment):
        async with SkueueClient(deployment.host_map) as client:
            acked, submitted_ids, skipped = await _drive(
                deployment, client, scenario
            )
            # let in-flight waves settle before the final barrier
            deadline = time.monotonic() + SETTLE_TIMEOUT
            await client.wait_all(timeout=SETTLE_TIMEOUT)
            records = await client.collect_records(
                timeout=max(5.0, deadline - time.monotonic())
            )
            return acked, submitted_ids, skipped, records

    with launch_local(
        NET_HOSTS,
        scenario.n_processes,
        seed=scenario.seed,
        structure=scenario.structure,
        id_slots=16,
        n_priorities=scenario.n_priorities,
    ) as deployment:
        try:
            acked, submitted_ids, skipped, records = asyncio.run(
                scenario_body(deployment)
            )
        except TimeoutError as exc:
            return ScenarioResult(
                scenario,
                Violation(
                    kind="liveness",
                    clause="stalled",
                    message=str(exc),
                    structure=scenario.structure,
                ),
            )
        except Exception as exc:  # noqa: BLE001 - any protocol raise is a finding
            return ScenarioResult(
                scenario,
                Violation(
                    kind="crash",
                    clause=type(exc).__name__,
                    message=str(exc),
                    structure=scenario.structure,
                ),
            )

    completed = {rec.req_id for rec in records if rec.completed}
    lost = acked - completed
    if lost:
        return ScenarioResult(
            scenario,
            lost_record_violation(lost, scenario.structure),
            records,
            len(submitted_ids),
            skipped,
        )
    violation = capture_violation(spec.check_history, records, scenario.structure)
    return ScenarioResult(
        scenario, violation, records, len(submitted_ids), skipped
    )
