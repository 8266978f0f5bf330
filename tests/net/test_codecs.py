"""The wire end to end: every frame rides the one binary codec on the
same connections, records as ``OpRecord``s.

The same mixed workload runs over a 3-host deployment of each of the
queue, stack and heap structures — the merged history arrives as
``OpRecord``s in a ``records`` frame behind ``done`` pushes — and goes
through the Definition-1 checkers; a poisoned body must not cost the
connection.  Marked ``net`` (excluded from tier-1; CI runs it in the
dedicated net job).
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.net.client import SkueueClient
from repro.net.launcher import launch_local
from repro.net.transport import FrameReader, encode_frame
from repro.verify import (
    check_heap_history,
    check_queue_history,
    check_stack_history,
)

pytestmark = pytest.mark.net

N_HOSTS, N_PROCESSES, OPS = 3, 6, 60

_CHECKERS = {
    "queue": check_queue_history,
    "stack": check_stack_history,
    "heap": check_heap_history,
}


async def _drive(deployment, structure: str):
    """A seeded mixed workload; returns the merged history."""
    rng = random.Random(f"codecs-{structure}")
    async with SkueueClient(deployment.host_map) as client:
        for i in range(OPS):
            pid = rng.randrange(N_PROCESSES)
            if rng.random() < 0.6:
                await client.insert(pid, f"elem-{i}",
                                    rng.randrange(3) if structure == "heap"
                                    else 0)
            else:
                await client.delete_min(pid)
        await client.wait_all(timeout=120.0)
        return await client.collect_records()


@pytest.mark.parametrize("structure", sorted(_CHECKERS))
def test_same_workload_verifies_on_the_wire(structure):
    with launch_local(
        N_HOSTS,
        N_PROCESSES,
        seed=11,
        structure=structure,
        n_priorities=3,
    ) as deployment:
        assert deployment.alive
        records = asyncio.run(_drive(deployment, structure))

    assert len(records) == OPS
    assert all(rec.completed for rec in records)
    # the merged history spans every host's shard: coalesced frames
    # crossed real host boundaries
    assert {rec.pid % N_HOSTS for rec in records} == set(range(N_HOSTS))
    _CHECKERS[structure](records)


def test_garbage_frame_does_not_kill_the_connection():
    # a poisoned body behind a valid header is dropped server-side
    # (FrameDecodeError -> note_error); the same connection must still
    # answer a well-formed health request afterwards
    async def scenario(deployment):
        reader, writer = await asyncio.open_connection(
            *next(iter(deployment.host_map.values()))
        )
        try:
            garbage = b"\xff\xfe\xfd\xfc"
            writer.write(struct.pack(">I", (0x01 << 24) | len(garbage)))
            writer.write(garbage)
            writer.write(encode_frame({"op": "health"}))
            await writer.drain()
            frames, replies = FrameReader(), []
            while not replies:
                data = await reader.read(65536)
                assert data, "the host hung up"
                replies.extend(frames.feed(data))
            assert replies[0]["op"] == "health"
        finally:
            writer.close()
            await writer.wait_closed()

    with launch_local(1, 2, seed=6) as deployment:
        asyncio.run(scenario(deployment))
        # the deployment is still healthy end-to-end after the poison
        async def still_works(deployment):
            async with SkueueClient(deployment.host_map) as client:
                req = await client.enqueue(0, "after-poison")
                await client.wait(req, timeout=30.0)

        asyncio.run(still_works(deployment))
