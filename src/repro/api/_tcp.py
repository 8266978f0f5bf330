"""TCP backend of the public API.

Runs a :class:`~repro.net.client.SkueueClient` on a dedicated asyncio
event loop in a background thread, so the session surface is plain
synchronous calls — the same shape as the simulator backends — while
``await handle`` still works from the caller's own event loop
(the handle wraps the cross-thread future).

The backend either *attaches* to an existing deployment (``host_map=``
or ``deployment=``) or *launches* a local one and owns its lifecycle.
Attaching is what multi-client scenarios use: every ``connect()`` gets
its own host-assigned nonce, so sessions never collide on req_ids.

The deployment may be *elastic*: hosts join and drain while sessions
submit.  The backend tracks the pushed cluster map instead of a
hard-coded deployment size — :meth:`TcpBackend.live_pids` reflects
joins/leaves live, and the session layer spreads its round-robin over
exactly those pids.  The backend answers the same names as the
simulator cluster (:class:`~repro.core.cluster.SkueueCluster`).
"""

from __future__ import annotations

import asyncio
import threading

from repro.core.requests import OpRecord

__all__ = ["TcpBackend"]


class TcpBackend:
    """One client connection to a (possibly shared) TCP deployment."""

    def __init__(
        self,
        structure: str = "queue",
        n_processes: int = 8,
        seed: int = 0,
        *,
        host_map: dict[int, tuple[str, int]] | None = None,
        deployment=None,
        n_hosts: int = 2,
        default_timeout: float = 60.0,
        **launch_kwargs,
    ) -> None:
        from repro.net.client import SkueueClient

        self.default_timeout = default_timeout
        self._owns_deployment = False
        self._closed = False
        self.deployment = deployment
        self.client = None
        self._loop = None
        self._thread = None
        try:
            if host_map is None and deployment is None:
                from repro.net.launcher import launch_local

                self.deployment = launch_local(
                    n_hosts, n_processes, seed=seed, structure=structure,
                    **launch_kwargs,
                )
                self._owns_deployment = True
            if self.deployment is not None:
                host_map = self.deployment.host_map
            self.client = SkueueClient(host_map)
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._run_loop, name="skueue-tcp-backend", daemon=True
            )
            self._thread.start()
            self._call(self.client.connect())
            info = self.client.deployment_info
            if info["structure"] != structure:
                raise ValueError(
                    f"deployment serves a {info['structure']!r}, session "
                    f"asked for a {structure!r}"
                )
            self.n_priorities = info["n_priorities"]
        except BaseException:
            self.close()
            raise

    # -- loop plumbing ---------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coro, timeout: float | None = None):
        """Run a coroutine on the backend loop; block for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    # -- submission -----------------------------------------------------------
    @property
    def n_processes(self) -> int:
        """Live process count (follows the cluster map under churn)."""
        return len(self.live_pids())

    def live_pids(self) -> list[int]:
        """Pids the session's round-robin should spread over right now.

        Under churn the pid space is neither contiguous nor static: a
        joined host contributes fresh pid numbers and a draining host's
        pids stop being pickable.  Reading the client's map each call
        keeps long-running sessions current without any explicit
        refresh."""
        return self.client.live_pids()

    def submit(self, pid: int, kind: int, item: object, priority: int = 0) -> int:
        return self._call(self.client._submit(pid, kind, item, priority))

    def submit_many(
        self, ops: list[tuple[int, int, object, int]]
    ) -> list[int]:
        return self._call(self.client.submit_many(ops))

    # -- completion -----------------------------------------------------------
    def is_done(self, req_id: int) -> bool:
        return self.client.is_done(req_id)

    def _timeout(self, timeout: float | None) -> float:
        # None means "backend default"; an explicit 0 stays 0 (poll)
        return self.default_timeout if timeout is None else timeout

    def wait(self, req_id: int, timeout: float | None = None):
        return self._call(self.client.wait(req_id, self._timeout(timeout)))

    def await_result(self, req_id: int):
        future = asyncio.run_coroutine_threadsafe(
            self.client.wait(req_id, self.default_timeout), self._loop
        )

        async def _await():
            return await asyncio.wrap_future(future)

        return _await()

    def wait_all(self, timeout: float | None = None) -> None:
        self._call(self.client.wait_all(self._timeout(timeout)))

    def result_of(self, req_id: int):
        return self.client.result_of(req_id)

    # -- history / lifecycle ----------------------------------------------------
    def history(self) -> list[OpRecord]:
        return self._call(self.client.collect_records())

    def metrics(self) -> dict[int, dict]:
        """One run-metrics summary per host, keyed by host index."""
        return {host: data["summary"] for host, data in self.telemetry().items()}

    def telemetry(self) -> dict[int, dict]:
        return self._call(self.client.host_telemetry())

    def trace(self) -> dict:
        raise AttributeError(
            "trace export over the client port is not supported; use "
            "`skueue-ops trace --seed HOST:PORT` or the /trace route"
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if (self.client is not None and self._loop is not None
                    and self._loop.is_running()):
                self._call(self.client.close(), timeout=5.0)
        except Exception:
            pass
        finally:
            if self._loop is not None:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=5.0)
                self._loop.close()
            if self._owns_deployment and self.deployment is not None:
                self.deployment.close()
