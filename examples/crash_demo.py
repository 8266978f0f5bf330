#!/usr/bin/env python3
"""Crash-stop fault tolerance over TCP: kill -9 a host under load.

The fail-stop scenario the ops plane exists for.  The script:

1. launches a 3-host deployment (6 genesis processes) with k=2 record
   replication and the failure detector on every host,
2. starts a continuous mixed ENQUEUE/DEQUEUE workload over the
   currently-live pids,
3. SIGKILLs one host mid-stream — no drain, no goodbye; the survivors'
   redials to its port are refused, so they suspect it at once, the
   acting coordinator evicts the corpse, and every live host rebuilds
   from the merged record dumps + replicas,
4. keeps submitting through the recovery, then collects the merged
   history and runs the Definition-1 sequential-consistency checker,
5. prints the ``skueue-ops``-style cluster status showing the eviction
   (``--snapshot FILE`` writes the raw health payloads as JSON — the
   same shape as ``skueue-ops status --json``).

Run:  python examples/crash_demo.py                  (~15 s, 3 OS processes)
      python examples/crash_demo.py --victim 0       (kill the coordinator)
      python examples/crash_demo.py --snapshot ops.json

See docs/PROTOCOL.md ("Crash-stop fault tolerance + ops plane") for the
wire frames involved (heartbeat/suspect/host_map/recover_dump/rebuild/
replica_put/replica_ack) and DESIGN.md for the recovery choreography.
"""

import argparse
import asyncio
import json
import random
import time

from repro.net.client import SkueueClient
from repro.net.launcher import launch_local
from repro.ops.cli import _collect, _render_status
from repro.verify import check_queue_history


async def continuous_load(client, stop, max_ops, stats):
    rng = random.Random("crash-demo")
    enqueued = 0
    while not stop.is_set() and stats["submitted"] < max_ops:
        pids = client.live_pids()
        pid = pids[rng.randrange(len(pids))]
        try:
            if rng.random() < 0.6 or enqueued == 0:
                await client.enqueue(pid, f"item-{stats['submitted']}")
                enqueued += 1
            else:
                await client.dequeue(pid)
        except (ConnectionError, OSError):
            # raced the crash window (dead host still in our map); a
            # later iteration lands on a survivor
            stats["refused"] += 1
        stats["submitted"] += 1
        await asyncio.sleep(0.002)


async def scenario(deployment, victim, max_ops):
    async with SkueueClient(deployment.host_map) as client:
        stop = asyncio.Event()
        stats = {"submitted": 0, "refused": 0}
        load = asyncio.create_task(continuous_load(client, stop, max_ops, stats))
        await asyncio.sleep(1.0)

        acked_before = sum(
            1 for req in list(client._pending) if client.is_done(req)
        )
        print(f"  kill -9 host {victim} "
              f"({acked_before} ops acknowledged so far) ...")
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        await loop.run_in_executor(
            None, lambda: deployment.kill_host(victim, timeout=90.0)
        )
        evict_seconds = time.monotonic() - started
        print(f"  survivors evicted host {victim} "
              f"after {evict_seconds:.2f}s; cluster rebuilt")

        await asyncio.sleep(1.5)  # post-crash traffic through the rebuild
        stop.set()
        await load
        await client.wait_all(timeout=180.0)
        records = await client.collect_records()
        check_queue_history(records)
        cluster = deployment.cluster_map()
        return {
            "victim": victim,
            "evict_seconds": round(evict_seconds, 2),
            "ops": stats["submitted"],
            "refused_during_window": stats["refused"],
            "acked_before_kill": acked_before,
            "records": len(records),
            "live_hosts": sorted(cluster.hosts),
            "departed": sorted(cluster.departed),
            "recovery_epoch": cluster.recovery_epoch,
            "consistent": True,
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--victim", type=int, default=1,
                        help="host index to SIGKILL (0 = the coordinator)")
    parser.add_argument("--ops", type=int, default=2000,
                        help="workload size cap")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--snapshot", metavar="FILE",
                        help="write post-crash health payloads as JSON "
                             "(skueue-ops status --json shape)")
    args = parser.parse_args()

    print("launching 3 hosts x 6 genesis processes (id_slots=16) ...")
    started = time.monotonic()
    with launch_local(3, 6, seed=args.seed, id_slots=16) as deployment:
        summary = asyncio.run(scenario(deployment, args.victim, args.ops))
        seed_host = min(deployment.host_map)
        payloads, failures = _collect(tuple(deployment.host_map[seed_host]))
        print()
        print(_render_status(payloads, failures))
        if args.snapshot:
            with open(args.snapshot, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "hosts": {str(k): v for k, v in payloads.items()},
                        "unreachable": {str(k): v for k, v in failures.items()},
                        "summary": summary,
                    },
                    handle, indent=2, default=str,
                )
            print(f"\nwrote ops snapshot to {args.snapshot}")
    summary["seconds"] = round(time.monotonic() - started, 1)
    print("\nmerged history is sequentially consistent (Definition 1)")
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
