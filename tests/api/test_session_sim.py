"""The handle-based public API on the simulator backends.

The TCP variants of these behaviours live in ``tests/net/test_api_tcp.py``
(they spawn OS processes and are excluded from tier-1); everything here
is hermetic and runs on both in-process engines.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro import BOTTOM
from repro.api import OpHandle, QueueSession, StackSession, connect
from repro.core.requests import INSERT, REMOVE
from tests.conftest import run_uniform_workload

BACKENDS = ("sync", "async")


@pytest.fixture(params=BACKENDS)
def queue(request):
    with connect(request.param, n_processes=8, seed=11) as session:
        yield session


@pytest.fixture(params=BACKENDS)
def stack(request):
    with connect(request.param, structure="stack", n_processes=8, seed=11) as session:
        yield session


class TestConnect:
    def test_connect_is_exported_at_top_level(self):
        assert repro.connect is connect

    def test_returns_structure_specific_sessions(self):
        with connect("sync") as q, connect("sync", structure="stack") as s:
            assert isinstance(q, QueueSession)
            assert isinstance(s, StackSession)

    def test_unknown_backend_and_structure(self):
        with pytest.raises(ValueError):
            connect("carrier-pigeon")
        with pytest.raises(ValueError):
            connect("sync", structure="deque")

    def test_cluster_escape_hatch_and_kwargs(self):
        with connect("sync", n_processes=4, seed=1, shuffle_delivery=False) as q:
            assert q.n_processes == 4
            assert not q.cluster.runtime.shuffle_delivery

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_backend_is_the_cluster(self, backend):
        with connect(backend, structure="heap", n_priorities=3, max_rounds=99) as heap:
            assert heap.backend is heap.cluster
            assert heap.cluster.structure == "heap" and heap.n_priorities == 3
            assert heap.cluster.max_rounds == 99


class TestHandles:
    def test_enqueue_dequeue_round_trip(self, queue):
        put = queue.enqueue("job-1", pid=3)
        got = queue.dequeue(pid=5)
        assert isinstance(put, OpHandle) and isinstance(got, OpHandle)
        assert put.kind == INSERT and got.kind == REMOVE
        assert not put.done()
        assert put.result() is True
        assert got.result() == "job-1"
        assert put.done() and got.done()

    def test_result_is_idempotent(self, queue):
        handle = queue.enqueue("x")
        assert handle.result() is handle.result() is True

    def test_empty_dequeue_returns_bottom(self, queue):
        assert queue.dequeue().result() is BOTTOM

    def test_default_pids_round_robin(self, queue):
        handles = [queue.enqueue(i) for i in range(queue.n_processes + 2)]
        assert [h.pid for h in handles[:3]] == [0, 1, 2]
        assert handles[queue.n_processes].pid == 0  # wrapped around

    def test_default_pids_follow_leaves_and_joins(self, queue):
        cluster = queue.cluster
        cluster.leave(1)
        pids = [queue.enqueue(i).pid for i in range(2 * queue.n_processes)]
        assert 1 not in pids and set(pids) == set(range(8)) - {1}
        queue.drain()
        joined = cluster.join()
        cluster.run_until_settled()
        assert cluster.live_pids() == [0, *range(2, 8), joined]
        pids = [queue.enqueue(i).pid for i in range(queue.n_processes)]
        assert sorted(pids) == cluster.live_pids()
        queue.drain()
        queue.verify()

    def test_handles_are_awaitable(self, queue):
        async def go():
            put = queue.enqueue("via-await", pid=2)
            got = queue.dequeue(pid=6)
            assert (await put) is True
            return await got

        assert asyncio.run(go()) == "via-await"

    def test_stack_handles(self, stack):
        stack.push("a", pid=0)
        stack.push("b", pid=0)
        top = stack.pop(pid=0)
        assert top.result() == "b"
        stack.drain()
        stack.verify()


class TestBatchAndDrain:
    def test_batch_preserves_per_pid_program_order(self, queue):
        # all ops at one process: sequential consistency degenerates to
        # sequential execution, so FIFO results are fully determined
        n = 6
        handles = queue.submit_batch(
            [("enqueue", f"x{i}", 0) for i in range(n)]
            + [("dequeue", 0)] * n
        )
        queue.drain()
        assert [h.result() for h in handles[n:]] == [f"x{i}" for i in range(n)]

    def test_batch_spec_shapes(self, queue):
        put, mixed, rem = queue.submit_batch(
            [("push", "alias-ok"), ("insert", "x", 4), ("remove",)]
        )
        queue.drain()
        assert put.result() is True and mixed.pid == 4
        assert rem.result() in ("alias-ok", "x", BOTTOM)

    def test_bad_specs_rejected(self, queue):
        with pytest.raises(ValueError):
            queue.submit_batch([("enqueue", "x", 0, "extra")])
        with pytest.raises(ValueError):
            queue.submit_batch([("dequeue", 0, 1)])
        with pytest.raises(ValueError):
            queue.submit("frobnicate")

    def test_op_and_dict_specs(self, queue):
        from repro import Op

        put, rem, dput = queue.submit_batch(
            [
                Op("enqueue", item="a", pid=2),
                Op("dequeue", pid=2),
                {"kind": "enqueue", "item": "b"},
            ]
        )
        queue.drain()
        assert put.result() is True and put.pid == 2
        assert rem.result() == "a"
        assert dput.result() is True

    def test_bad_op_and_dict_specs_rejected(self, queue):
        from repro import Op

        with pytest.raises(ValueError):
            queue.submit_batch([{"kind": "enqueue", "color": "red"}])
        with pytest.raises(ValueError):
            queue.submit_batch([{"item": "kindless"}])
        with pytest.raises(ValueError):
            # removals carry no item: the named shape makes this checkable
            queue.submit_batch([Op("dequeue", item="x")])
        with pytest.raises(ValueError):
            queue.submit_batch([Op("frobnicate")])

    @pytest.mark.parametrize("bad", [
        ("enqueue", "b", 99),  # no such process
        ("enqueue", "b", 3),  # leaving
        ("enqueue", "b", 0, 1),  # a queue takes no priorities
    ])
    def test_a_rejected_batch_issues_nothing(self, queue, bad):
        queue.cluster.leave(3)
        with pytest.raises(ValueError):
            queue.submit_batch([("enqueue", "a", 0), bad])
        assert queue.history() == [] and queue.cluster.metrics.generated == 0

    def test_drain_completes_everything(self, queue):
        handles = [queue.enqueue(i) for i in range(10)]
        assert not all(h.done() for h in handles)
        queue.drain()
        assert all(h.done() for h in handles)
        # wait_all is the same operation under the client-API name
        queue.wait_all()

    def test_uniform_workload_script(self, queue):
        handles, records = run_uniform_workload(queue, ops=40, seed=5)
        assert len(records) == len(handles)


class TestTelemetry:
    def test_metrics_telemetry_and_trace_answer_from_the_cluster(self, queue):
        queue.enqueue("x")
        queue.drain()
        summary = queue.metrics()
        assert summary == queue.cluster.metrics.summary()
        assert summary["completed"] == 1
        assert queue.telemetry() == {0: {"summary": summary}}
        assert queue.trace() == {"traceEvents": [], "displayTimeUnit": "ms"}


class TestResults:
    def test_result_of_unknown_id_raises(self, queue):
        with pytest.raises(KeyError):
            queue.result_of(123456)
        with pytest.raises(KeyError):
            queue.result_of(-1)

    def test_result_of_pending_is_none(self, queue):
        handle = queue.enqueue("x")
        assert queue.result_of(handle.req_id) is None

    def test_history_matches_handles(self, queue):
        handles = queue.submit_batch([("enqueue", i) for i in range(4)])
        queue.drain()
        records = queue.history()
        assert {h.req_id for h in handles} == {r.req_id for r in records}

    def test_old_facade_result_of_also_raises_keyerror(self):
        from repro import SkueueCluster

        with SkueueCluster(n_processes=4, seed=0) as cluster:
            with pytest.raises(KeyError):
                cluster.result_of(99)
            with pytest.raises(KeyError):
                cluster.result_of(-1)
            handle = cluster.submit(0, INSERT, "x")
            cluster.run_until_done()
            assert cluster.result_of(handle) is True


def test_api_does_no_extra_protocol_work():
    """The handle layer must not change what the engine executes: the
    same deterministic op stream takes the same number of simulated
    rounds through a session as through the bare cluster."""
    n_processes, n_ops = 64, 800
    ops = []
    for i in range(n_ops):
        kind = INSERT if i % 3 != 2 else REMOVE
        ops.append(((i * 7) % n_processes, kind, f"item-{i}" if kind == INSERT else None))

    with repro.SkueueCluster(
        n_processes=n_processes, seed=13, shuffle_delivery=False
    ) as cluster:
        for pid, kind, item in ops:
            cluster.submit(pid, kind, item)
        cluster.run_until_done()
        raw_rounds = cluster.runtime.round
        assert cluster.metrics.completed == n_ops

    with connect(
        "sync", n_processes=n_processes, seed=13, shuffle_delivery=False
    ) as session:
        handles = session.submit_batch([
            ("enqueue", item, pid) if kind == INSERT else ("dequeue", pid)
            for pid, kind, item in ops
        ])
        session.drain()
        assert len(handles) == n_ops and all(h.done() for h in handles)
        assert session.cluster.runtime.round == raw_rounds
