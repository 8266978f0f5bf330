"""Crash-stop fault tolerance, end to end over real processes.

Each test launches a TCP deployment, drives a mixed workload, then
SIGKILLs one host mid-stream (``NetDeployment.kill_host`` — no drain,
no goodbye).  The survivors must detect the crash — their redials to
the dead host's port are refused, well before its silence would count
— evict the corpse, rebuild from merged record dumps + replicas, and
finish the workload — and the merged history must still pass the
sequential-consistency checker.  A planned exit (a drain, or stopping
the whole deployment) closes ports too, and must suspect nobody.

The durability claim under test (k=2 replication, ack-gated DONE): any
operation the *client* saw acknowledged before the crash is present and
completed in the post-crash merged history.  Operations in flight at
the moment of the kill may be re-run or transparently resubmitted;
either way they appear exactly once per req_id in the history the
checker sees.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.structures import structure_names
from repro.net.client import SkueueClient
from repro.net.launcher import launch_local
from repro.net.transport import request
from repro.ops.detector import HEARTBEAT_SECONDS, MISS_THRESHOLD
from repro.verify.seqcons import check_queue_history

pytestmark = pytest.mark.net

# a refused redial evicts before the silence path could suspect anyone
EVICT_WITHIN = MISS_THRESHOLD * HEARTBEAT_SECONDS


async def _drive_load(client, stop, tag, acked, max_ops=4000):
    """Submit mixed ops round-robin over live pids until told to stop.

    Submissions that race the crash window (dead host still in the map)
    raise connection errors; real workloads retry, we just skip — the
    durability assertion only covers operations that were *accepted*.
    """
    n = 0
    while not stop.is_set() and n < max_ops:
        pids = client.live_pids()
        pid = pids[n % len(pids)]
        try:
            if n % 3 == 2:
                req = await client.dequeue(pid)
            else:
                req = await client.enqueue(pid, f"{tag}-{n}")
            acked.append(req)
        except (ConnectionError, OSError):
            pass
        n += 1
        await asyncio.sleep(0.002)


def _completed_ids(records):
    return {rec.req_id for rec in records if rec.completed}


def _ops_log(deployment) -> list[str]:
    """Every live host's ops-log ring (the ``health`` payload's ``log``)."""
    lines: list[str] = []
    for address in deployment.host_map.values():
        health = request(tuple(address), {"op": "health"}, "health")
        lines.extend(health["log"])
    return lines


def _kill_until_evicted(deployment, victim) -> float:
    """SIGKILL ``victim``; seconds until the survivors' map drops it."""
    started = time.monotonic()
    deployment.kill_host(victim, wait_evicted=False)
    while victim in deployment.cluster_map().hosts:
        assert time.monotonic() - started < 30.0, f"host {victim} never evicted"
        time.sleep(0.01)
    return time.monotonic() - started


def _assert_refused(lines, victim):
    """The eviction rode a refused dial, not the silence path."""
    assert any(f"suspecting host {victim}: connection refused" in line
               for line in lines), lines
    assert not any(f"suspecting host {victim}: silent" in line
                   for line in lines), lines


def _crash_scenario(deployment, victim):
    """Drive load, SIGKILL ``victim``, and return the post-mortem facts."""

    async def scenario():
        async with SkueueClient(deployment.host_map) as client:
            stop = asyncio.Event()
            acked: list[int] = []
            load = asyncio.create_task(
                _drive_load(client, stop, f"kill{victim}", acked)
            )
            await asyncio.sleep(1.0)

            # ops acknowledged before the kill: these must survive it
            done_before = {r for r in acked if client.is_done(r)}
            loop = asyncio.get_running_loop()
            evict_elapsed = await loop.run_in_executor(
                None, _kill_until_evicted, deployment, victim)

            await asyncio.sleep(1.5)  # let post-crash load flow
            stop.set()
            await load
            await client.wait_all(timeout=120.0)
            records = await client.collect_records()
            _assert_refused(_ops_log(deployment), victim)
            return acked, done_before, evict_elapsed, records

    return asyncio.run(scenario())


def test_kill_noncoordinator_under_load():
    """SIGKILL a follower mid-workload: evict, rebuild, stay consistent."""
    with launch_local(3, 6, seed=42, id_slots=16) as deployment:
        acked, done_before, elapsed, records = _crash_scenario(deployment, 1)

        assert elapsed < EVICT_WITHIN, f"eviction took {elapsed:.2f}s"
        cluster = deployment.cluster_map()
        assert 1 not in cluster.hosts
        assert 1 in cluster.departed
        assert cluster.recovery_epoch >= 1

        completed = _completed_ids(records)
        lost = done_before - completed
        assert not lost, f"{len(lost)} acknowledged ops missing after crash"
        assert len(acked) > 200  # the workload actually ran
        check_queue_history(records)


def test_kill_coordinator_under_load():
    """SIGKILL host 0: the survivors re-elect and run the eviction."""
    with launch_local(3, 6, seed=7, id_slots=16) as deployment:
        acked, done_before, elapsed, records = _crash_scenario(deployment, 0)

        assert elapsed < EVICT_WITHIN, f"eviction took {elapsed:.2f}s"
        cluster = deployment.cluster_map()
        assert 0 not in cluster.hosts
        assert 0 in cluster.departed
        assert cluster.recovery_epoch >= 1
        # the new coordinator is the lowest live index
        assert min(cluster.hosts) == 1

        completed = _completed_ids(records)
        lost = done_before - completed
        assert not lost, f"{len(lost)} acknowledged ops missing after crash"
        check_queue_history(records)


def test_eviction_cancels_a_drain_and_leave_can_be_reissued():
    """SIGKILL host 1 and ask host 3 to leave before the survivors have
    noticed: the drain cannot finish (its waves cross the corpse), the
    eviction cancels it, host 3's respawned shard serves as a full
    member — and the re-issued ``leave`` drains it."""
    with launch_local(4, 8, seed=5, id_slots=16) as deployment:

        async def scenario():
            async with SkueueClient(deployment.host_map) as client:
                stop = asyncio.Event()
                acked: list[int] = []
                load = asyncio.create_task(
                    _drive_load(client, stop, "drain", acked)
                )
                await asyncio.sleep(0.5)
                loop = asyncio.get_running_loop()

                def churn():
                    deployment.kill_host(1, wait_evicted=False)
                    deployment.remove_host(3, wait=False)
                    deployment._wait_gone(1, 30.0, "host 1 never evicted")
                    # unless the drain got through before the eviction,
                    # host 3 is a full member again ...
                    address = deployment.host_map.get(3)
                    if address is not None:
                        deadline = time.monotonic() + 20.0
                        while request(tuple(address), {"op": "health"},
                                      "health")["recovering"]:
                            assert time.monotonic() < deadline
                            time.sleep(0.05)
                        health = request(tuple(address), {"op": "health"},
                                         "health")
                        assert health["draining"] is False
                        assert 3 not in deployment.cluster_map().leaving
                        # ... and the re-issued leave takes it out
                        deployment.remove_host(3, timeout=60.0)

                await loop.run_in_executor(None, churn)
                await asyncio.sleep(1.0)
                stop.set()
                await load
                await client.wait_all(timeout=120.0)
                return acked, await client.collect_records()

        acked, records = asyncio.run(scenario())
        cluster = deployment.cluster_map()
        assert set(cluster.hosts) == {0, 2}
        assert set(cluster.departed) == {1, 3}
        assert len(acked) > 100
        check_queue_history(records)


def test_a_drain_and_a_stop_suspect_nobody(capfd):
    """A drained host and a stopping deployment close their ports as a
    crash does: a peer's redial is refused.  Neither is a crash, so no
    host logs a suspicion and nobody is evicted."""
    with launch_local(3, 6, seed=3, id_slots=16) as deployment:

        async def load():
            async with SkueueClient(deployment.host_map) as client:
                for n in range(60):
                    await client.enqueue(n % 4, n)
                await client.wait_all(timeout=60.0)

        asyncio.run(load())
        deployment.remove_host(2, timeout=60.0)
        time.sleep(1.0)  # the retiree's port has been closed a while
        cluster = deployment.cluster_map()
        assert cluster.departed == {2: cluster.coordinator}
        assert cluster.recovery_epoch == 0
        assert not any("suspecting host" in line
                       for line in _ops_log(deployment))
    time.sleep(0.5)  # the hosts' last lines are forwarded by a thread
    forwarded = capfd.readouterr().err
    assert "suspecting host" not in forwarded
    assert "evicted" not in forwarded


def test_ops_surface_reports_eviction():
    """/health over HTTP + the health frame both expose detector state,
    and after a kill the eviction shows up on every survivor."""
    with launch_local(3, 6, seed=11, id_slots=16) as deployment:
        address = deployment.host_map[2]

        # the HTTP routes ride the data port: no second listener to find
        framed = request(tuple(address), {"op": "health"}, "health")
        assert "ops_port" not in framed

        with urllib.request.urlopen(
            f"http://127.0.0.1:{address[1]}/health", timeout=10
        ) as reply:
            health = json.loads(reply.read())
        assert health["host"] == 2
        assert health["wired"] is True
        assert health["recovering"] is False
        assert health["detector"]["suspects"] == []
        assert sorted(health["replica_targets"]) == [0, 1]
        # the membership tables ride the one payload, frame and route alike
        assert set(health["hosts"]) == set(framed["hosts"]) == {"0", "1", "2"}
        assert "log" in health and "log" in framed
        # ... so there is no second status route
        with pytest.raises(urllib.error.HTTPError) as gone:
            urllib.request.urlopen(
                f"http://127.0.0.1:{address[1]}/status", timeout=10)
        assert gone.value.code == 404

        deployment.kill_host(1, timeout=90.0)

        for index, addr in deployment.host_map.items():
            health = request(tuple(addr), {"op": "health"}, "health")
            evicted = {event["host"] for event in health["evictions"]}
            assert 1 in evicted, f"host {index} never recorded the eviction"
            assert health["recovering"] is False

        # the dead host's replica slot moved off the survivor ring
        health = request(tuple(deployment.host_map[2]), {"op": "health"}, "health")
        assert 1 not in health["replica_targets"]


def test_fuzzer_net_runner_executes_a_crash_scenario():
    """The skueue-fuzz ``net`` runner plays a seeded scenario (crash
    axis included) over a real deployment and verifies the history."""
    from repro.testing.scenario import NET_RUNNER, Scenario, run_scenario

    expanded = [Scenario.from_seed(seed, structure="queue", runner=NET_RUNNER)
                for seed in range(50)]

    # pick the first seed whose expansion actually schedules a SIGKILL
    scenario = next(sc for sc in expanded if sc.crashes)
    result = run_scenario(scenario)
    assert not result.failed, result.violation
    assert result.submitted > 0
    assert len(result.records) >= result.submitted


@pytest.mark.parametrize("structure", structure_names())
def test_a_crash_rebuilds_every_registered_structure(structure):
    """The rebuild asks the structure's spec for the reference model, the
    anchor state and the preload key: a SIGKILL mid-run on a stack or a
    heap deployment recovers and verifies like the queue's.  (A stack
    run annihilates pairs before the kill; their replicas must say so,
    or the rebuild meets completed records that were never valued.)"""
    from repro.testing.scenario import NET_RUNNER, Scenario, run_scenario

    scenario = next(
        sc for sc in (
            Scenario.from_seed(seed, structure=structure, runner=NET_RUNNER)
            for seed in range(50)
        ) if sc.crashes
    )
    result = run_scenario(scenario)
    assert not result.failed, result.violation
    assert result.submitted > 0
