"""Queue/Stack sessions: the backend-agnostic operation surface.

A session owns one backend (simulator engine or TCP client) and turns
operation submissions into :class:`~repro.api.handles.OpHandle` objects.
The surface is identical on every backend:

* ``enqueue``/``dequeue`` (``push``/``pop`` on stacks) — one handle each;
* :meth:`Session.submit_batch` — many operations pipelined in one call
  (one network flush per touched host on TCP, plain loop on the sims),
  returned as handles in submission order;
* :meth:`Session.drain` / ``wait_all`` — block until every operation
  submitted so far has completed;
* :meth:`Session.history` / :meth:`Session.verify` — the full OpRecord
  history (collected from every host on TCP) and the Definition-1
  sequential-consistency check over it.

``pid`` is optional everywhere: by default the session spreads
operations round-robin over the processes that accept them right now
(the backend's ``live_pids()``, which follows joins and leaves), so
simple workloads never mention pids at all.

The backend is a :class:`~repro.core.cluster.SkueueCluster` on the
simulators and a :class:`~repro.api._tcp.TcpBackend` on TCP; both answer
the same names, and the session delegates to them without asking which
one it holds.  Each backend validates an operation's priority itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.cluster import SkueueCluster
from repro.core.requests import INSERT, REMOVE, OpRecord
from repro.core.structures import get_structure
from repro.api.handles import OpHandle

__all__ = ["HeapSession", "Op", "QueueSession", "Session", "StackSession"]

_INSERT_NAMES = frozenset({"enqueue", "push", "insert"})
_REMOVE_NAMES = frozenset({"dequeue", "pop", "remove", "delete_min"})


def _parse_kind(op) -> int:
    """Normalise an operation designator (name or INSERT/REMOVE int)."""
    if op in (INSERT, REMOVE):
        return op
    if isinstance(op, str):
        name = op.lower()
        if name in _INSERT_NAMES:
            return INSERT
        if name in _REMOVE_NAMES:
            return REMOVE
    raise ValueError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class Op:
    """One explicit batch operation for :meth:`Session.submit_batch`.

    Unlike the positional tuple shapes, every field is named — there is
    no insert-vs-remove positional ambiguity (a tuple's second element
    is the *item* for inserts but the *pid* for removals).  ``kind``
    accepts the ``INSERT``/``REMOVE`` ints or any name alias
    (``"enqueue"``, ``"push"``, ``"pop"``, ``"delete_min"``, ...).
    """

    kind: int | str
    item: object = None
    pid: int | None = None
    priority: int = 0


_OP_FIELDS = frozenset({"kind", "item", "pid", "priority"})


def _parse_op(spec) -> tuple[int, object, int | None, int]:
    """One batch element -> ``(kind, item, pid_or_None, priority)``.

    Accepted shapes:

    * :class:`Op` instances and dicts with the same named fields
      (``{"kind": "enqueue", "item": "a"}``) — unambiguous, preferred;
    * positional tuples — ``("enqueue", item)``, ``("enqueue", item,
      pid)``, ``("insert", item, pid, priority)`` (heap sessions;
      ``pid`` may be ``None`` for round-robin), ``("dequeue",)``,
      ``("dequeue", pid)`` (removals carry no item, so their second
      element is the pid) — names may be any alias accepted by
      :func:`_parse_kind`.
    """
    if isinstance(spec, Op) or isinstance(spec, Mapping):
        if isinstance(spec, Mapping):
            unknown = set(spec) - _OP_FIELDS
            if unknown:
                raise ValueError(
                    f"op spec {spec!r} has unknown fields {sorted(unknown)}"
                )
            if "kind" not in spec:
                raise ValueError(f"op spec {spec!r} is missing 'kind'")
            spec = Op(**spec)
        kind = _parse_kind(spec.kind)
        if kind != INSERT and spec.item is not None:
            raise ValueError(f"removal spec {spec!r} must not carry an item")
        return kind, spec.item, spec.pid, spec.priority
    name, *rest = spec
    kind = _parse_kind(name)
    priority = 0
    if kind == INSERT:
        if len(rest) > 3:
            raise ValueError(f"insert spec {spec!r} has too many fields")
        item = rest[0] if rest else None
        pid = rest[1] if len(rest) > 1 else None
        priority = rest[2] if len(rest) > 2 else 0
    else:
        if len(rest) > 1:
            raise ValueError(f"removal spec {spec!r} has too many fields")
        item = None
        pid = rest[0] if rest else None
    return kind, item, pid, priority


class Session:
    """One open connection to a queue/stack, over any backend."""

    structure = "queue"

    def __init__(self, backend) -> None:
        self._backend = backend
        self._rr_pid = 0  # round-robin cursor for default pid assignment
        self._closed = False

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Release the backend (idempotent): engine, sockets, and — if
        this session launched its own TCP deployment — the host
        processes."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- submission -----------------------------------------------------------
    @property
    def n_processes(self) -> int:
        """Number of processes requests can be issued at."""
        return self._backend.n_processes

    def _pick_pid(self, pid: int | None) -> int:
        if pid is not None:
            return pid
        pool = self._backend.live_pids()
        if not pool:
            raise RuntimeError("no process accepts operations")
        pid = pool[self._rr_pid % len(pool)]
        self._rr_pid += 1
        return pid

    def _wrap(
        self, req_id: int, kind: int, pid: int, item: object, priority: int = 0
    ) -> OpHandle:
        return OpHandle(self._backend, req_id, kind, pid, item,
                        structure=self.structure, priority=priority)

    def submit(self, op, item: object = None, *, pid: int | None = None,
               priority: int = 0) -> OpHandle:
        """Submit one operation by designator; returns its handle."""
        kind = _parse_kind(op)
        pid = self._pick_pid(pid)
        req_id = self._backend.submit(pid, kind, item, priority)
        return self._wrap(req_id, kind, pid, item, priority)

    def submit_batch(self, ops) -> list[OpHandle]:
        """Pipeline many operations; handles come back in submission order.

        ``ops`` is an iterable of specs (see :func:`_parse_op`).  Per-pid
        program order follows the iterable's order on every backend.  The
        backend validates the whole batch before it issues any of it.
        """
        parsed = [
            (self._pick_pid(pid), kind, item, priority)
            for kind, item, pid, priority in map(_parse_op, ops)
        ]
        req_ids = self._backend.submit_many(parsed)
        return [
            self._wrap(req_id, kind, pid, item, priority)
            for req_id, (pid, kind, item, priority) in zip(req_ids, parsed)
        ]

    # -- completion -----------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Block until every operation submitted so far has completed."""
        self._backend.wait_all(timeout)

    # identical semantics, familiar name for client-API users
    wait_all = drain

    def result_of(self, req_id: int):
        """Result by raw req_id: completed result, ``None`` while
        pending; :class:`KeyError` for ids never submitted here."""
        return self._backend.result_of(req_id)

    # -- history / verification -----------------------------------------------
    def history(self) -> list[OpRecord]:
        """The full operation history (every host's records on TCP)."""
        return self._backend.history()

    def verify(self) -> list[OpRecord]:
        """Check the history against Definition 1; returns the records.

        Raises :class:`repro.verify.ConsistencyViolation` on failure.
        On TCP the history includes operations of *all* clients of the
        deployment, so the merged multi-client execution is what gets
        verified.
        """
        records = self.history()
        get_structure(self.structure).check_history(records)
        return records

    # -- telemetry --------------------------------------------------------------
    def metrics(self) -> dict:
        """Run-metrics summary: throughput counts + per-kind latency
        stats (count/mean/min/p50/p99/max).

        On simulator backends this is the cluster's
        :meth:`~repro.sim.metrics.Metrics.summary`; on TCP it is one
        such summary per host, keyed by host index.
        """
        return self._backend.metrics()

    def telemetry(self) -> dict:
        """Full telemetry per host: the run-metrics summary plus the
        tracer's phase histograms (``phases``) and, on TCP, the host's
        metrics-registry snapshot (``registry``).  Keyed by host index;
        simulators answer as a single host ``0``.
        """
        return self._backend.telemetry()

    def trace(self) -> dict:
        """Chrome trace-event export of the sampled op lifecycles
        (build the session with ``trace_sample=...``); load the JSON in
        Perfetto or ``chrome://tracing``.  Simulator backends only — on
        TCP use ``skueue-ops trace`` or any host's ``/trace`` route,
        which see every client's ops, not just this session's.
        """
        return self._backend.trace()

    # -- escape hatches ---------------------------------------------------------
    @property
    def cluster(self) -> SkueueCluster:
        """The simulator cluster, which is the backend itself (sim
        backends only)."""
        if not isinstance(self._backend, SkueueCluster):
            raise AttributeError("this backend does not expose a cluster "
                                 "(TCP deployments run in other processes)")
        return self._backend

    @property
    def backend(self):
        return self._backend


class QueueSession(Session):
    """FIFO session: ENQUEUE/DEQUEUE handles."""

    structure = "queue"

    def enqueue(self, item: object = None, *, pid: int | None = None) -> OpHandle:
        """Submit ENQUEUE(item); returns its handle."""
        return self.submit(INSERT, item, pid=pid)

    def dequeue(self, *, pid: int | None = None) -> OpHandle:
        """Submit DEQUEUE(); returns its handle."""
        return self.submit(REMOVE, pid=pid)


class StackSession(Session):
    """LIFO session: PUSH/POP handles (Skack, Section VI)."""

    structure = "stack"

    def push(self, item: object = None, *, pid: int | None = None) -> OpHandle:
        """Submit PUSH(item); returns its handle."""
        return self.submit(INSERT, item, pid=pid)

    def pop(self, *, pid: int | None = None) -> OpHandle:
        """Submit POP(); returns its handle."""
        return self.submit(REMOVE, pid=pid)


class HeapSession(Session):
    """Priority session: INSERT/DELETE-MIN handles (Skeap).

    ``priority`` 0 is the most urgent class; the number of classes is
    fixed per deployment (``n_priorities``) and exposed on the session.
    """

    structure = "heap"

    def insert(self, item: object = None, *, priority: int = 0,
               pid: int | None = None) -> OpHandle:
        """Submit INSERT(item, priority); returns its handle."""
        return self.submit(INSERT, item, pid=pid, priority=priority)

    def delete_min(self, *, pid: int | None = None) -> OpHandle:
        """Submit DELETE-MIN(); returns its handle.

        Completes with the oldest element of the lowest non-empty
        priority class, or ⊥ when every class is empty.
        """
        return self.submit(REMOVE, pid=pid)

    @property
    def n_priorities(self) -> int:
        """Priority class count of the underlying deployment."""
        return self._backend.n_priorities
