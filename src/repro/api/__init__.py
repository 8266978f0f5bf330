"""One queue API for every runtime: ``connect()`` + handle sessions.

The protocol is runtime-agnostic; this package makes the *public
surface* runtime-agnostic too.  ``connect`` returns a
:class:`~repro.api.session.QueueSession` (or ``StackSession``) whose
operations return :class:`~repro.api.handles.OpHandle` objects — the
same workload script runs unmodified on synchronous rounds, the
asynchronous event simulator, and a real multi-process TCP deployment::

    import repro

    def workload(session):
        a = session.enqueue("job-1", pid=3)
        b = session.dequeue(pid=5)
        session.drain()
        assert b.result() == "job-1"
        session.verify()                      # Definition-1 check

    for backend in ("sync", "async", "tcp"):
        with repro.connect(backend, n_processes=8, seed=7) as session:
            workload(session)

Backends
--------
``sync``
    Deterministic synchronous rounds (:class:`SyncRunner`); the paper's
    round metrics.  The backend is a :class:`SkueueCluster` (also
    ``session.cluster``); extra kwargs go to its constructor.
``async``
    Adversarial asynchronous delays (:class:`AsyncRunner`), same cluster.
``tcp``
    Real asyncio TCP over NodeHost OS processes.  Launches a local
    deployment by default (``n_hosts=``); pass ``host_map=`` or
    ``deployment=`` to attach to a running one — any number of
    concurrent sessions may attach to the same deployment (per-client
    nonces keep their request-id spaces disjoint, see
    :func:`repro.core.requests.pack_req_id`).

Both backends answer the same protocol (``submit``/``submit_many``,
``live_pids``, ``is_done``/``wait``/``await_result``/``wait_all``,
``result_of``, ``history``, ``metrics``/``telemetry``/``trace``,
``close``), so the session delegates without asking which one it holds.
"""

from __future__ import annotations

from repro.core.cluster import SkueueCluster
from repro.core.structures import get_structure
from repro.api.handles import OpHandle
from repro.api.session import HeapSession, Op, QueueSession, Session, StackSession

__all__ = [
    "HeapSession",
    "Op",
    "OpHandle",
    "QueueSession",
    "Session",
    "StackSession",
    "connect",
]


def connect(
    backend: str = "sync",
    *,
    structure: str = "queue",
    n_processes: int = 8,
    seed: int = 0,
    **kwargs,
) -> Session:
    """Open a queue/stack/heap session on the chosen backend.

    ``structure`` selects FIFO (``"queue"``), LIFO (``"stack"``) or
    constant-priority (``"heap"``, Skeap — pass ``n_priorities=`` to size
    the class count) semantics; any registered structure name is
    accepted (see :mod:`repro.core.structures`).  Remaining kwargs are
    backend-specific: cluster options on the simulators (e.g. the sync
    runner's ``shuffle_delivery=`` and the engine bound ``max_rounds=``);
    ``n_hosts``/``host_map``/``deployment`` and launch options on TCP.
    """
    spec = get_structure(structure)
    if backend in ("sync", "async"):
        impl = SkueueCluster(
            n_processes, seed=seed, runner=backend, structure=structure,
            **kwargs,
        )
    elif backend == "tcp":
        from repro.api._tcp import TcpBackend

        impl = TcpBackend(
            structure=structure, n_processes=n_processes, seed=seed, **kwargs
        )
    else:
        raise ValueError(f"unknown backend {backend!r} "
                         "(expected 'sync', 'async', or 'tcp')")
    return spec.session_class(impl)
