"""Frames carry the protocol's own values, one pass each way.

Each case runs a frame from the code that builds it, through its pipe's
fold, ``encode_frame``, a ``FrameReader`` and the link plane's unfold,
into the handler that takes it — socket-free, with ``encode_payload``/``record_to_wire``
patched to fail — and checks that what the handler got is what the
builder put in, type for type.  Records ride as ``OpRecord``s in the
peer ``batch`` like any other frame.  An item the codec cannot carry is
still refused when it is submitted, not when its frame is written.  The
last test pins that nothing in ``src/`` calls the tagging functions
(their one user is the frozen benchmark corpus).
"""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

import repro
from repro.core.actions import A_RT_PUT, A_SERVE
from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord, pack_req_id
from repro.net import client as client_module
from repro.net import control, records, server, transport
from repro.net.client import SkueueClient, _Session
from repro.net.link import Connection, PeerLink, unfold
from repro.net.membership import ClusterMap
from repro.net.records import NetOpRecord, clone, encode_complete
from repro.net.server import HostConfig, NodeHost
from repro.net.transport import FrameReader

TAGGING = ("encode_payload", "record_to_wire")


@pytest.fixture(autouse=True)
def no_tagging(monkeypatch):
    def refuse(obj):
        raise AssertionError(f"a hot frame tagged {obj!r}")

    for module in (transport, records, server, client_module, control):
        for name in TAGGING:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def same(got, want) -> bool:
    """Equal, and of the same type all the way down (⊥ is the singleton)."""
    if type(got) is not type(want):
        return False
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want


def across(pipe) -> list[dict]:
    """The pipe's next write, as the far end reads it."""
    frames = list(pipe.outbox)
    pipe.outbox.clear()
    return list(FrameReader().feed(bytes(pipe.encode(frames))))


def members(frames: list[dict]) -> list[dict]:
    """What the far end's connection hands its handler: wrappers unfolded."""
    return [member for frame in frames for member in unfold(frame)]


def host_and_client() -> tuple[NodeHost, SkueueClient, _Session]:
    """A wired one-host deployment and a greeted client session, no sockets."""
    host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2))
    host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2))
    client = SkueueClient({0: ("127.0.0.1", 1)})
    client.id_slots = host.config.id_slots
    session = _Session(0, client._on_frame, client._on_lost, client._note_error)
    session.nonce = 1
    return host, client, session


def quiet_connection() -> Connection:
    return Connection(lambda conn, frame: None, lambda conn: None)


def req(seq: int) -> int:
    return pack_req_id(1, seq, 0, 1)


#: a routed PUT mid-walk: (key, bits, steps, ideal, (element, gen, req_id))
ROUTED_PUT = (0.625, 5, 3, 0.25, ((req(7), ("job", 7)), 1.5, req(7)))
#: stage 3 down the tree: one (lo, hi, value) per run, and the epoch
SERVE = (((1200, 1204, 9000), (810, 812, 9005), (1205, 1206, 9008)), 0)


@pytest.mark.parametrize("action, payload", [(A_RT_PUT, ROUTED_PUT),
                                             (A_SERVE, SERVE)],
                         ids=["routed-put", "serve"])
def test_an_actor_message_arrives_as_sent(action, payload):
    async def scenario():
        host, _client, _session = host_and_client()
        delivered = []
        host.runtime.deliver = lambda *message: delivered.append(message)
        link = PeerLink(("127.0.0.1", 1), src=0)
        link.send(host._msg_frame(3, action, payload))
        link.send(host._msg_frame(4, action, payload))
        frames = across(link)
        for frame in members(frames):
            host.handle_frame(quiet_connection(), frame)
        # before the loop turns: the host's own waves deliver here too
        arrived, errors = list(delivered), list(host.errors)
        await host._async_stop()
        return frames, arrived, errors

    frames, delivered, errors = asyncio.run(scenario())
    assert [f["op"] for f in frames] == ["batch"]
    assert same(delivered, [(3, action, payload), (4, action, payload)])
    assert errors == []


@pytest.mark.parametrize("result", [(req(5), ("job", 5)), BOTTOM],
                         ids=["element", "bottom"])
def test_a_completion_arrives_as_learned(result):
    async def scenario():
        host, _client, _session = host_and_client()
        rec = NetOpRecord(req(4), 0, 0, REMOVE, None, 0.0)
        host.records.add_local(rec)
        link = PeerLink(("127.0.0.1", 1), src=0)
        link.send({**encode_complete(rec.req_id, (9001, result, False, True)),
                   "gen": host.control.gen})
        frames = across(link)
        for frame in members(frames):
            host.handle_frame(quiet_connection(), frame)
        errors = list(host.errors)
        await host._async_stop()
        return frames, rec, errors

    frames, rec, errors = asyncio.run(scenario())
    assert [f["op"] for f in frames] == ["complete"]
    assert rec.value == 9001 and rec.completed and errors == []
    assert same(rec.result, result)


def test_submits_arrive_as_submitted():
    items = [("job", 1), {0.5: ("slice", 2), "k": [1, 2]}, None]

    async def scenario():
        host, client, session = host_and_client()
        reqs = [client._queue_submit(session, pid % 2, kind, item)
                for pid, (kind, item) in enumerate(zip(
                    (INSERT, INSERT, REMOVE), items))]
        frames = across(session)
        conn = quiet_connection()
        host.connections.add(conn)
        for frame in members(frames):
            host.handle_frame(conn, frame)
        got = [host.records.get(r).item for r in reqs]
        errors = list(host.errors)
        await host._async_stop()
        return frames, got, errors

    frames, got, errors = asyncio.run(scenario())
    assert [f["op"] for f in frames] == ["submit_batch"]
    assert same(got, items) and errors == []


def test_an_item_the_wire_cannot_carry_is_refused_at_submit():
    async def scenario():
        host, client, session = host_and_client()
        with pytest.raises(transport.FrameError):
            client._queue_submit(session, 0, INSERT, ("job", object()))
        await host._async_stop()
        return client, session

    client, session = asyncio.run(scenario())
    assert not session.outbox and client._pending == {}


def test_dones_arrive_as_completed():
    outcomes = {req(1): (REMOVE, (req(9), ("job", 9))),
                req(2): (REMOVE, BOTTOM),
                req(3): (INSERT, None)}

    async def scenario():
        host, client, session = host_and_client()
        conn = quiet_connection()
        for idx, (req_id, (kind, result)) in enumerate(outcomes.items()):
            rec = NetOpRecord(req_id, 0, idx, kind, None, 0.0)
            rec.result = result
            host._submitters[req_id] = conn
            host._push_done(rec)
        frames = across(conn)
        for frame in members(frames):
            client._on_frame(session, frame)
        await host._async_stop()
        return frames, client._results

    frames, results = asyncio.run(scenario())
    assert [f["op"] for f in frames] == ["done_batch"]
    assert all(same(results[r], outcome) for r, outcome in outcomes.items())


def test_records_ride_the_peer_batch_as_op_records():
    rec = NetOpRecord(req(4), 0, 0, INSERT, ("job", 4), 0.5, priority=2)
    rec.value = 9
    link = PeerLink(("127.0.0.1", 1), src=0)
    link.send({"op": "replica_put", "origin": 0, "gen": 0,
               "records": [clone(rec)],
               "facts": [[rec.req_id, 9, None, False, False]]})
    link.send({"op": "recover_dump", "gen": 1, "host": 0, "epoch": 3,
               "records": [clone(rec)]})
    link.send({"op": "forwards", "forwards": {17: 2}})
    (batch,) = across(link)
    assert batch["op"] == "batch"
    put, dump, forwards = batch["frames"]
    assert put["facts"] == [[rec.req_id, 9, None, False, False]]
    for got in (*put["records"], *dump["records"]):
        assert type(got) is OpRecord
        assert all(same(getattr(got, slot), getattr(rec, slot))
                   for slot in OpRecord.__slots__)
    assert same(forwards["forwards"], {17: 2})
    assert type(next(iter(forwards["forwards"]))) is int


def test_nothing_in_src_tags():
    """No module under ``src/`` calls ``encode_payload`` or
    ``record_to_wire`` (they call each other, recursively)."""
    src = Path(repro.__file__).resolve().parent
    callers = set()
    for path in sorted(src.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) in TAGGING
                        or getattr(node.func, "attr", None) in TAGGING):
                    callers.add((path.relative_to(src).as_posix(), func.name))
    assert callers == {
        ("net/transport.py", "encode_payload"),
        ("net/transport.py", "record_to_wire"),
    }
