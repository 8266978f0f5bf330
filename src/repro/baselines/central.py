"""Central-server queue baseline (the intro's strawman).

One server stores the whole queue and serialises every request; clients
send operations directly (2 message hops).  The server processes at most
``service_rate`` requests per round — the constant-capacity assumption
that makes a single machine a bottleneck: once the offered load exceeds
the rate, queueing delay grows linearly with time instead of staying at
O(log n) like Skueue (Corollary 16).

Runs on the same synchronous engine, so latencies are directly
comparable (in rounds).
"""

from __future__ import annotations

from collections import deque

from repro.core.requests import BOTTOM, INSERT, OpRecord, REMOVE
from repro.sim.metrics import Metrics
from repro.sim.process import Actor
from repro.sim.sync_runner import SyncRunner
from repro.util.rng import RngStreams

__all__ = ["CentralQueueCluster"]

_OP = 0  # client -> server: one queue operation
_REPLY = 1  # server -> client: result

_SERVER_ID = 0


class _Server(Actor):
    """The central queue server with bounded per-round service capacity."""

    __slots__ = ("queue", "backlog", "service_rate", "ctx_records", "metrics")

    def __init__(self, runtime, service_rate: int, records, metrics) -> None:
        super().__init__(_SERVER_ID, runtime)
        self.queue: deque = deque()
        self.backlog: deque = deque()
        self.service_rate = service_rate
        self.ctx_records = records
        self.metrics = metrics

    def handle(self, action: int, payload: tuple) -> None:
        self.backlog.append(payload)
        self.wake_me()

    def timeout(self) -> None:
        served = 0
        while self.backlog and served < self.service_rate:
            client_vid, req_id, kind = self.backlog.popleft()
            rec = self.ctx_records[req_id]
            if kind == INSERT:
                self.queue.append(rec.element)
                result = True
            else:
                result = self.queue.popleft() if self.queue else BOTTOM
            self.send(client_vid, _REPLY, (req_id, result))
            served += 1
        if self.backlog:
            self.wake_me()

    @property
    def backlog_size(self) -> int:
        return len(self.backlog)


class _Client(Actor):
    __slots__ = ("ctx_records", "metrics")

    def __init__(self, aid, runtime, records, metrics) -> None:
        super().__init__(aid, runtime)
        self.ctx_records = records
        self.metrics = metrics

    def handle(self, action: int, payload: tuple) -> None:
        req_id, result = payload
        rec = self.ctx_records[req_id]
        rec.result = result if rec.kind == REMOVE else None
        rec.completed = True
        name = "enqueue" if rec.kind == INSERT else (
            "dequeue_empty" if result is BOTTOM else "dequeue"
        )
        self.metrics.observe(name, self.runtime.now - rec.gen)


class CentralQueueCluster:
    """Facade mirroring the subset of SkueueCluster the benchmarks use."""

    def __init__(
        self, n_processes: int, seed: int = 0, service_rate: int = 8
    ) -> None:
        self.rng = RngStreams(seed)
        self.runtime = SyncRunner(self.rng, Metrics(), shuffle_delivery=False)
        self.records: list[OpRecord] = []
        self.n_processes = n_processes
        self.server = _Server(
            self.runtime, service_rate, self.records, self.runtime.metrics
        )
        self.runtime.add_actor(self.server)
        for pid in range(1, n_processes + 1):
            self.runtime.add_actor(
                _Client(pid, self.runtime, self.records, self.runtime.metrics)
            )
        self._op_counts: dict[int, int] = {}

    @property
    def metrics(self) -> Metrics:
        return self.runtime.metrics

    def submit(self, pid: int, kind: int, item=None, priority: int = 0) -> int:
        """Issue one operation (INSERT/REMOVE) at process ``pid``;
        returns its request id.  A FIFO queue: ``priority`` must be 0."""
        if priority:
            raise ValueError("the baseline queue takes no priorities")
        client_vid = pid + 1
        idx = self._op_counts.get(pid, 0)
        self._op_counts[pid] = idx + 1
        rec = OpRecord(len(self.records), pid, idx, kind, item, self.runtime.now)
        self.records.append(rec)
        self.metrics.request_generated()
        self.runtime.actors[client_vid].send(
            _SERVER_ID, _OP, (client_vid, rec.req_id, kind)
        )
        return rec.req_id

    def step(self, rounds: int = 1) -> None:
        self.runtime.run(rounds)

    def run_until_done(self, max_rounds: int = 1_000_000) -> None:
        self.runtime.run_until(lambda: self.metrics.all_done, max_rounds)
