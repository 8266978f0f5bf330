"""Spawn and wire a local multi-process Skueue deployment.

``launch_local(n_hosts, n_processes)`` starts ``n_hosts``
:class:`~repro.net.server.NodeHost` OS processes (``python -m
repro.net.launcher serve``), learns each one's ephemeral port from its
``SKUEUE-READY`` line (hosts always bind port 0 unless told otherwise,
so parallel deployments never collide), sends every host the full peer
map and the genesis cluster map (the ``wire`` frame — on receipt a host
spawns its shard of the LDB and kicks the pipeline), and returns a
:class:`NetDeployment` handle whose ``close()`` / context-manager exit
shuts everything down deterministically.

Deployments are **elastic**: :meth:`NetDeployment.add_host` spawns a
new host that joins the live overlay (``skueue-node join``) and
:meth:`NetDeployment.remove_host` drains one out — both while clients
keep submitting (see docs/PROTOCOL.md and DESIGN.md, "Membership over
TCP").

Also the ``skueue-node`` console entry point:

* ``skueue-node serve --config-json '{...}'`` — run one host (what the
  launcher spawns; also usable manually across machines),
* ``skueue-node join --seed HOST:PORT --pids N`` — join a running
  deployment as a brand-new host,
* ``skueue-node demo --hosts 2 --processes 8 --ops 40`` — spawn a local
  deployment, run a mixed workload, verify sequential consistency.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.structures import structure_names
from repro.net.membership import ClusterMap
from repro.net.server import HostConfig, run_host, run_joining_host
from repro.net.transport import request

__all__ = ["NetDeployment", "launch_local", "main"]

_READY_PREFIX = "SKUEUE-READY"

#: Seconds a spawned host has to print its READY line.
_READY_TIMEOUT = 30.0


def _src_path() -> str:
    """Directory to put on the children's PYTHONPATH (the repro package root)."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


def _read_ready_line(proc: subprocess.Popen, deadline: float) -> tuple[int, int]:
    """Block until the child prints its READY line; returns (index, port)."""
    stream = proc.stdout
    buffer = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("NodeHost did not report ready in time")
        if proc.poll() is not None:
            raise RuntimeError(
                f"NodeHost exited with {proc.returncode} before becoming ready"
            )
        readable, _, _ = select.select([stream], [], [], min(remaining, 0.2))
        if not readable:
            continue
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            raise RuntimeError("NodeHost closed stdout before becoming ready")
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            text = line.decode(errors="replace").strip()
            if text.startswith(_READY_PREFIX):
                _, index, port = text.split()
                return int(index), int(port)
            if text:
                print(text, file=sys.stderr)


def _drain_stdout(proc: subprocess.Popen) -> None:
    """Forward a ready child's stdout so its pipe can never fill up."""

    def pump() -> None:
        try:
            for line in iter(proc.stdout.readline, b""):
                sys.stderr.write(line.decode(errors="replace"))
        except ValueError:
            pass  # stream closed during shutdown

    threading.Thread(target=pump, daemon=True).start()


class NetDeployment:
    """Handle on a running multi-process deployment (possibly elastic)."""

    def __init__(
        self, processes: list[subprocess.Popen], host_map: dict[int, tuple[str, int]],
        config: dict,
        proc_by_index: dict[int, subprocess.Popen] | None = None,
    ) -> None:
        self.processes = processes
        self.host_map = host_map
        self.config = config
        # host_index -> OS process, for targeted crash injection
        self.proc_by_index = dict(proc_by_index or {})
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def close(self, grace: float = 5.0) -> None:
        """Shut hosts down (orderly frame first, SIGTERM/KILL as backstop)."""
        if self._closed:
            return
        self._closed = True
        for address in self.host_map.values():
            try:
                request(address, {"op": "shutdown"}, "bye", timeout=2.0)
            except (OSError, RuntimeError, ConnectionError):
                pass
        deadline = time.monotonic() + grace
        for proc in self.processes:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def __enter__(self) -> "NetDeployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- conveniences ---------------------------------------------------------
    def client(self):
        from repro.net.client import SkueueClient

        return SkueueClient(self.host_map)

    @property
    def alive(self) -> bool:
        return all(proc.poll() is None for proc in self.processes)

    # -- live membership -------------------------------------------------------
    def cluster_map(self) -> ClusterMap:
        """The current cluster map, pulled from any live host."""
        last_error: Exception | None = None
        for address in list(self.host_map.values()):
            try:
                reply = request(address, {"op": "map"}, "host_map",
                                timeout=5.0)
                return reply["map"]
            except (OSError, RuntimeError, ConnectionError) as exc:
                last_error = exc
        raise RuntimeError(f"no live host answered a map pull: {last_error}")

    def _wait_gone(self, index: int, timeout: float, complaint: str) -> None:
        """Block until the cluster map no longer names host ``index``."""
        deadline = time.monotonic() + timeout
        while True:
            cluster = self.cluster_map()
            if index not in cluster.hosts:
                self.host_map = dict(cluster.hosts)
                return
            if time.monotonic() > deadline:
                raise TimeoutError(complaint)
            time.sleep(0.2)

    def add_host(
        self,
        n_pids: int = 1,
        integrate_timeout: float | None = 60.0,
    ) -> int:
        """Join a fresh host into the live deployment; returns its index.

        With ``integrate_timeout`` set (the default) the call also waits
        until every new pid has been spliced into the overlay; pass
        ``None`` to return as soon as the host is serving (its pids take
        submissions immediately — joining nodes relay through their
        responsible node until integrated).
        """
        seed = next(iter(self.host_map.values()))
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_path() + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.net.launcher", "join",
                "--seed", f"{seed[0]}:{seed[1]}",
                "--pids", str(n_pids),
            ],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            index, port = _read_ready_line(
                proc, time.monotonic() + _READY_TIMEOUT
            )
        except BaseException:
            proc.kill()
            raise
        _drain_stdout(proc)
        self.processes.append(proc)
        self.proc_by_index[index] = proc
        self.host_map[index] = ("127.0.0.1", port)
        if integrate_timeout is not None:
            self.wait_host_integrated(index, timeout=integrate_timeout)
        return index

    def wait_host_integrated(self, index: int, timeout: float = 60.0) -> None:
        """Block until host ``index`` reports all its pids integrated."""
        address = self.host_map[index]
        deadline = time.monotonic() + timeout
        while True:
            reply = request(address, {"op": "health"}, "health", timeout=5.0)
            if reply["wired"] and not reply["joining_pids"]:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"host {index} still integrating pids "
                    f"{reply['joining_pids']} after {timeout}s"
                )
            time.sleep(0.1)

    def remove_host(
        self, index: int, wait: bool = True, timeout: float = 120.0
    ) -> None:
        """Drain host ``index`` out of the deployment.

        The host stops being picked by clients immediately (the
        coordinator marks it leaving), its virtual nodes depart through
        the protocol's LEAVE/update machinery, and once drained it hands
        its record archive to the coordinator and exits.  With ``wait``
        the call blocks until the host is gone from the cluster map.
        """
        address = self.host_map[index]
        request(address, {"op": "leave", "host": index}, "leaving",
                timeout=10.0)
        if wait:
            self._wait_gone(index, timeout,
                            f"host {index} still draining after {timeout}s")

    def kill_host(
        self, index: int, wait_evicted: bool = True, timeout: float = 30.0
    ) -> None:
        """Crash-stop host ``index``: SIGKILL, no goodbye frame.

        This is the fault-injection entry point for crash tests and
        demos — the process dies mid-protocol with whatever requests,
        store shards and (possibly) the anchor it held.  The survivors'
        redials to its port are refused, so their failure detectors
        suspect it at once, the acting coordinator evicts the corpse, and
        the cluster rebuilds from replicated record facts (see
        DESIGN.md, "Crash-stop fault tolerance").
        With ``wait_evicted`` the call blocks until the survivors'
        cluster map no longer names the dead host.
        """
        proc = self.proc_by_index.get(index)
        if proc is None:
            raise KeyError(f"no tracked process for host {index}")
        proc.kill()
        proc.wait()
        self.host_map.pop(index, None)
        if wait_evicted:
            self._wait_gone(index, timeout,
                            f"host {index} still in the cluster map "
                            f"{timeout}s after SIGKILL (no eviction)")


def launch_local(
    n_hosts: int,
    n_processes: int,
    seed: int = 0,
    structure: str = "queue",
    round_seconds: float = 0.01,
    id_slots: int = 0,
    n_priorities: int = 4,
    trace_sample: float = 0.0,
) -> NetDeployment:
    """Spawn, wire and return a local ``n_hosts``-process deployment.

    Every host binds port 0 (the kernel hands out a free ephemeral port,
    reported back through the READY line), so any number of deployments
    — parallel CI jobs included — coexist without port coordination.

    ``id_slots`` fixes the req_id origin-residue modulus, which caps how
    many host indices the deployment can ever hand out; the default
    is ``n_hosts``, so pass something larger (e.g. 16) when hosts will
    join at runtime.

    ``trace_sample`` sets every host's per-op trace sampling rate (the
    telemetry plane, see DESIGN.md); it defaults off.
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    if n_processes < n_hosts:
        raise ValueError("need at least one pid per host")
    id_slots = id_slots or n_hosts
    if id_slots < n_hosts:
        raise ValueError(f"id_slots={id_slots} < n_hosts={n_hosts}")
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_path() + os.pathsep + env.get("PYTHONPATH", "")
    processes: list[subprocess.Popen] = []
    host_map: dict[int, tuple[str, int]] = {}
    epoch = time.time()  # one clock origin for every host's `now`
    try:
        for index in range(n_hosts):
            config = HostConfig(
                host_index=index,
                n_hosts=n_hosts,
                n_processes=n_processes,
                seed=seed,
                structure=structure,
                round_seconds=round_seconds,
                epoch=epoch,
                id_slots=id_slots,
                n_priorities=n_priorities,
                trace_sample=trace_sample,
            )
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.net.launcher",
                    "serve",
                    "--config-json",
                    json.dumps(config.to_json()),
                ],
                stdout=subprocess.PIPE,
                env=env,
            )
            processes.append(proc)
        deadline = time.monotonic() + _READY_TIMEOUT
        proc_by_index: dict[int, subprocess.Popen] = {}
        for proc in processes:
            index, port = _read_ready_line(proc, deadline)
            host_map[index] = ("127.0.0.1", port)
            proc_by_index[index] = proc
            _drain_stdout(proc)
        if len(host_map) != n_hosts:
            raise RuntimeError(f"only {len(host_map)}/{n_hosts} hosts became ready")
        genesis = ClusterMap.genesis(host_map, n_processes, id_slots, config.salt)
        for index, address in host_map.items():
            reply = request(
                address,
                {"op": "wire", "map": genesis},
                "wired",
                timeout=10.0,
            )
            if reply.get("host") != index:
                raise RuntimeError(f"host at {address} answered as {reply.get('host')}")
    except BaseException:
        for proc in processes:
            if proc.poll() is None:
                proc.kill()
        raise
    return NetDeployment(
        processes,
        host_map,
        {
            "n_hosts": n_hosts,
            "n_processes": n_processes,
            "seed": seed,
            "structure": structure,
            "id_slots": id_slots,
            "n_priorities": n_priorities,
            "trace_sample": trace_sample,
        },
        proc_by_index=proc_by_index,
    )


# -- demo workload -------------------------------------------------------------


async def _demo(deployment: NetDeployment, ops: int, seed: int) -> dict:
    import random

    from repro.core.structures import get_structure

    structure = deployment.config.get("structure", "queue")
    spec = get_structure(structure)
    n_priorities = deployment.config.get("n_priorities", 4)
    rng = random.Random(f"net-demo-{seed}")
    n_processes = deployment.config["n_processes"]
    async with deployment.client() as client:
        inserted = 0
        for i in range(ops):
            pid = rng.randrange(n_processes)
            if rng.random() < 0.55 or inserted == 0:
                if structure == "heap":
                    await client.insert(
                        pid, f"item-{i}", priority=rng.randrange(n_priorities)
                    )
                else:
                    await client.enqueue(pid, f"item-{i}")
                inserted += 1
            else:
                await client.dequeue(pid)
        await client.wait_all()
        records = await client.collect_records()
        spec.check_history(records)
        completed = sum(1 for rec in records if rec.completed)
        return {"ops": len(records), "completed": completed, "consistent": True,
                "structure": structure}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skueue-node", description="Skueue TCP runtime launcher"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one NodeHost (spawned by the launcher)")
    serve.add_argument("--config-json", required=True,
                       help="HostConfig as a JSON object, keyed by its "
                            "field names; an unknown key is an error")

    join = sub.add_parser(
        "join", help="join a running deployment as a brand-new host"
    )
    join.add_argument("--seed", required=True,
                      help="HOST:PORT of any live host of the deployment")
    join.add_argument("--pids", type=int, default=1,
                      help="number of fresh processes this host contributes")
    join.add_argument("--bind", default="127.0.0.1")
    join.add_argument("--port", type=int, default=0,
                      help="listen port (default 0: ephemeral; a busy fixed "
                           "port is retried, then falls back to ephemeral)")

    demo = sub.add_parser("demo", help="local deployment + verified demo workload")
    demo.add_argument("--hosts", type=int, default=2)
    demo.add_argument("--processes", type=int, default=8)
    demo.add_argument("--ops", type=int, default=40)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--structure", choices=structure_names(), default="queue",
                      help="which distributed structure to deploy")

    args = parser.parse_args(argv)
    if args.command == "serve":
        config = HostConfig.from_json(json.loads(args.config_json))
        asyncio.run(run_host(config, ready_prefix=_READY_PREFIX))
        return 0
    if args.command == "join":
        seed_host, _, seed_port = args.seed.rpartition(":")
        asyncio.run(
            run_joining_host(
                (seed_host or "127.0.0.1", int(seed_port)),
                n_pids=args.pids,
                bind_host=args.bind,
                port=args.port,
                ready_prefix=_READY_PREFIX,
            )
        )
        return 0
    if args.command == "demo":
        with launch_local(args.hosts, args.processes, seed=args.seed,
                          structure=args.structure) as deployment:
            summary = asyncio.run(_demo(deployment, args.ops, args.seed))
        print(json.dumps(summary))
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":
    sys.exit(main())
