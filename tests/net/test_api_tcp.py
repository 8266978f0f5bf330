"""The handle-based public API over the real TCP deployment.

The point of these tests is *portability*: the very same workload
helper that tests the sim backends (``tests/conftest.py``,
``run_uniform_workload``) drives a multi-OS-process deployment here.
Marked ``net`` (excluded from tier-1; CI runs it in the net job).
"""

from __future__ import annotations

import asyncio

import pytest

from repro import BOTTOM
from repro.api import connect
from repro.net.launcher import launch_local
from tests.conftest import run_priority_workload, run_uniform_workload

pytestmark = pytest.mark.net


def test_uniform_workload_runs_unmodified_on_every_backend():
    histories = {}
    for backend in ("sync", "async", "tcp"):
        with connect(backend, n_processes=8, seed=21) as session:
            handles, records = run_uniform_workload(session, ops=40, seed=21)
            histories[backend] = len(records)
    # same script, same op count, three execution substrates
    assert histories["sync"] == histories["async"] == histories["tcp"] == 40


def test_priority_workload_runs_unmodified_on_every_backend():
    # the Skeap acceptance scenario: one mixed-priority script, three
    # execution substrates, each history priority-verified
    histories = {}
    for backend in ("sync", "async", "tcp"):
        with connect(
            backend, structure="heap", n_processes=8, seed=22, n_priorities=3
        ) as session:
            handles, records = run_priority_workload(session, ops=40, seed=22)
            histories[backend] = len(records)
    assert histories["sync"] == histories["async"] == histories["tcp"] == 40


def test_tcp_kwargs_only_apply_to_tcp():
    # n_hosts is a tcp kwarg; sim backends must reject it loudly rather
    # than silently absorb it
    with pytest.raises(TypeError):
        connect("sync", n_hosts=2)


def test_batch_pipelining_and_fifo_per_pid_over_tcp():
    n = 8
    with connect("tcp", n_processes=4, seed=5, n_hosts=2) as queue:
        handles = queue.submit_batch(
            [("enqueue", f"x{i}", 1) for i in range(n)] + [("dequeue", 1)] * n
        )
        queue.drain()
        assert [h.result() for h in handles[n:]] == [f"x{i}" for i in range(n)]
        queue.verify()


def test_handles_awaitable_from_callers_event_loop():
    with connect("tcp", n_processes=4, seed=6, n_hosts=2) as queue:

        async def go():
            put = queue.enqueue("via-await", pid=0)
            got = queue.dequeue(pid=0)
            assert (await put) is True
            return await got

        assert asyncio.run(go()) == "via-await"


def test_stack_structure_over_tcp():
    with connect("tcp", structure="stack", n_processes=4, seed=7,
                 n_hosts=2) as stack:
        stack.push("a", pid=0)
        stack.push("b", pid=0)
        stack.drain()
        top = stack.pop(pid=0)
        assert top.result() == "b"
        stack.drain()
        records = stack.verify()
        assert len(records) == 3

        # a structure-mismatched session attaching to the same
        # deployment is rejected during the handshake
        with pytest.raises(ValueError):
            connect("tcp", structure="queue", deployment=stack.backend.deployment)


def test_heap_structure_over_tcp():
    with connect("tcp", structure="heap", n_processes=4, seed=7,
                 n_hosts=2, n_priorities=3) as heap:
        heap.insert("bulk", priority=2, pid=0)
        heap.insert("urgent", priority=0, pid=0)
        heap.drain()
        first = heap.delete_min(pid=1)
        assert first.result() == "urgent"
        second = heap.delete_min(pid=2)
        assert second.result() == "bulk"
        assert heap.delete_min(pid=3).result() is BOTTOM
        records = heap.verify()
        assert len(records) == 5
        # priorities survive the collect round-trip
        assert {rec.priority for rec in records if rec.kind == 0} == {0, 2}

        # a structure-mismatched session attaching to the same
        # deployment is rejected during the handshake
        with pytest.raises(ValueError):
            connect("tcp", structure="queue", deployment=heap.backend.deployment)


def test_partial_host_map_is_reconciled_at_connect():
    # the welcome frame carries the authoritative cluster map: a partial
    # host_map is only a *seed* — the client discovers and connects to
    # the remaining hosts itself instead of mis-sharding (or, as before
    # live membership, refusing outright)
    with launch_local(2, 4, seed=9) as deployment:
        partial = {0: deployment.host_map[0]}
        with connect("tcp", host_map=partial) as queue:
            handles = [queue.enqueue(f"item-{i}") for i in range(8)]
            queue.drain()
            assert all(handle.result() is True for handle in handles)
            records = queue.verify()
            # submissions really spanned both hosts' pids
            assert len(records) == 8
            assert {rec.pid % 2 for rec in records} == {0, 1}


def test_zero_timeout_polls_instead_of_blocking():
    # round_seconds=0.1 makes completion take several hundred ms, so the
    # immediate poll below cannot race the protocol even on a loaded box
    with connect("tcp", n_processes=4, seed=10, n_hosts=2,
                 round_seconds=0.1) as queue:
        handle = queue.enqueue("x", pid=0)
        # an explicit zero timeout must poll, not fall back to the 60s
        # backend default — and raise the *builtin* TimeoutError
        with pytest.raises(TimeoutError):
            handle.result(timeout=0)
        assert handle.result() is True  # still awaitable afterwards


def test_result_of_unknown_and_drain_semantics():
    with connect("tcp", n_processes=4, seed=8, n_hosts=2) as queue:
        with pytest.raises(KeyError):
            queue.result_of(987654321)
        handles = [queue.enqueue(i) for i in range(6)]
        queue.drain()
        assert all(h.done() for h in handles)
        assert queue.dequeue(pid=2).result() in (BOTTOM, *range(6))


def _settled(summary: dict) -> tuple:
    """The fields of a host's metrics summary that a drain settles."""
    return (summary["generated"], summary["completed"],
            {kind: stat["count"] for kind, stat in summary["per_kind"].items()})


def test_the_tcp_backend_answers_the_cluster_protocol():
    """The names a sim session's cluster answers, answered per host."""
    with connect("tcp", n_processes=4, seed=9, n_hosts=2) as queue:
        assert queue.backend.live_pids() == [0, 1, 2, 3] and queue.n_processes == 4
        handles = queue.submit_batch([("enqueue", i) for i in range(4)])
        queue.drain()
        assert [queue.result_of(h.req_id) for h in handles] == [True] * 4
        metrics = queue.metrics()
        assert set(metrics) == {0, 1}
        assert sum(summary["completed"] for summary in metrics.values()) == 4
        telemetry = queue.telemetry()
        # idle waves keep counting messages between the two reads: compare
        # what settled with the drain
        assert {host: _settled(data["summary"])
                for host, data in telemetry.items()} == {
            host: _settled(summary) for host, summary in metrics.items()}
        assert all("registry" in data for data in telemetry.values())
        with pytest.raises(AttributeError):
            queue.trace()
        with pytest.raises(AttributeError):
            queue.cluster
