"""Cross-codec end-to-end: the protocol's answers must not depend on
the wire encoding.

The same mixed workload runs over a JSON deployment, a binary
deployment, and a deliberately mixed one (per-host codecs, so every
peer link and client connection negotiates independently) — for each of
the queue, stack, and heap structures — and the merged histories go
through the Definition-1 checkers.  Marked ``net`` (excluded from
tier-1; CI runs it in the dedicated net job).
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.net.client import SkueueClient
from repro.net.launcher import launch_local
from repro.net.transport import (
    CODEC_BINARY,
    CODEC_JSON,
    encode_frame,
    read_frame,
)
from repro.verify import (
    check_heap_history,
    check_queue_history,
    check_stack_history,
)

pytestmark = pytest.mark.net

N_HOSTS, N_PROCESSES, OPS = 3, 6, 60

#: codec per host index; "mixed" makes every inter-host direction
#: exercise a different (sender codec, receiver) pairing
CODEC_DEPLOYMENTS = {
    "json": ["json"] * N_HOSTS,
    "binary": ["binary"] * N_HOSTS,
    "mixed": ["json", "binary", "json"],
}

_CHECKERS = {
    "queue": check_queue_history,
    "stack": check_stack_history,
    "heap": check_heap_history,
}


async def _drive(deployment, structure: str, wire: str):
    """The same seeded mixed workload, whatever the wire speaks."""
    rng = random.Random(f"codecs-{structure}")  # same ops for every wire
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
        records = await client.collect_records()
        # the client offered both codecs; each host answered with its
        # own preference, so the negotiated send codecs must mirror the
        # deployment's per-host codec list
        negotiated = [client._sessions[h].codec for h in sorted(deployment.host_map)]
        assert negotiated == CODEC_DEPLOYMENTS[wire]
        return records


@pytest.mark.parametrize("wire", sorted(CODEC_DEPLOYMENTS))
@pytest.mark.parametrize("structure", sorted(_CHECKERS))
def test_same_workload_verifies_on_every_wire(structure, wire):
    with launch_local(
        N_HOSTS,
        N_PROCESSES,
        seed=11,
        structure=structure,
        n_priorities=3,
        codec=CODEC_DEPLOYMENTS[wire],
    ) as deployment:
        assert deployment.alive
        records = asyncio.run(_drive(deployment, structure, wire))

    assert len(records) == OPS
    assert all(rec.completed for rec in records)
    # the merged history spans every host's shard: coalesced frames
    # crossed real host boundaries on this wire
    assert {rec.pid % N_HOSTS for rec in records} == set(range(N_HOSTS))
    _CHECKERS[structure](records)


def test_legacy_hello_without_codec_offer_gets_json():
    # a pre-negotiation client sends a bare hello; a binary-preferring
    # host must still answer JSON-framed and pick JSON for the session
    async def scenario(deployment):
        reader, writer = await asyncio.open_connection(
            *next(iter(deployment.host_map.values()))
        )
        try:
            writer.write(encode_frame({"op": "hello"}, CODEC_JSON))
            await writer.drain()
            welcome = await read_frame(reader)
            assert welcome["op"] == "welcome"
            assert welcome["codec"] == CODEC_JSON
        finally:
            writer.close()
            await writer.wait_closed()

    with launch_local(1, 2, seed=5, codec=CODEC_BINARY) as deployment:
        asyncio.run(scenario(deployment))


def test_garbage_frame_does_not_kill_the_connection():
    # a poisoned body behind a valid header is dropped server-side
    # (FrameDecodeError -> note_error); the same connection must still
    # answer a well-formed ping afterwards
    async def scenario(deployment):
        reader, writer = await asyncio.open_connection(
            *next(iter(deployment.host_map.values()))
        )
        try:
            garbage = b"\xff\xfe\xfd\xfc"
            writer.write(struct.pack(">I", (0x01 << 24) | len(garbage)))
            writer.write(garbage)
            writer.write(encode_frame({"op": "ping"}, CODEC_BINARY))
            await writer.drain()
            pong = await read_frame(reader)
            assert pong is not None and pong["op"] == "pong"
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
