"""`OpHandle`: the future-like unit of progress of the public API.

Every submitted operation — on any backend — is represented by one
handle instead of a raw request-id int.  A handle can be

* queried without blocking (:meth:`OpHandle.done`),
* resolved to its result (:meth:`OpHandle.result` — on the simulators
  this *drives the engine* until the operation completes, on the TCP
  backend it blocks on the completion push),
* awaited (``await handle``) from ``async`` code on every backend.

This mirrors how wait-free queue constructions treat the per-operation
handle, not polling, as the unit of progress: the caller owns a thing
that makes progress observable, rather than a key into someone else's
table.  The raw ``req_id`` stays exposed for interop with histories and
the engine-level cluster and client.
"""

from __future__ import annotations

from repro.core.requests import INSERT
from repro.core.structures import get_structure

__all__ = ["OpHandle"]


class OpHandle:
    """Handle on one submitted insert/remove operation (any structure)."""

    __slots__ = (
        "req_id", "kind", "pid", "item", "priority", "_backend", "_structure"
    )

    def __init__(self, backend, req_id: int, kind: int, pid: int,
                 item: object, structure: str = "queue",
                 priority: int = 0) -> None:
        self._backend = backend
        self.req_id = req_id
        self.kind = kind
        self.pid = pid
        self.item = item
        self.priority = priority  # Skeap class of a heap INSERT
        self._structure = structure

    # -- future-like surface ---------------------------------------------------
    def done(self) -> bool:
        """Whether the operation has completed (never blocks or steps)."""
        return self._backend.is_done(self.req_id)

    def result(self, timeout: float | None = None):
        """Block until complete; returns ``True`` for inserts, the
        removed item or ``BOTTOM`` for removals.

        On the simulators this advances the engine until the operation's
        record completes (``timeout`` is ignored — completion is bounded
        by the backend's deterministic round budget).  On the TCP backend
        it waits up to ``timeout`` seconds (backend default if ``None``)
        and raises :class:`TimeoutError` if still pending.
        """
        return self._backend.wait(self.req_id, timeout)

    def __await__(self):
        """Awaitable on every backend; equivalent to :meth:`result`."""
        return self._backend.await_result(self.req_id).__await__()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done() else "pending"
        op = get_structure(self._structure).kind_name(self.kind)
        tail = f", {self.item!r}" if self.kind == INSERT else ""
        if self.kind == INSERT and self._structure == "heap":
            tail += f", priority={self.priority}"
        return f"<OpHandle {op}(p{self.pid}{tail}) req={self.req_id} {state}>"
