"""In-process microbenchmarks of single layers (the "M" metrics).

Each function times calls into one module's public functions, with no
socket and no OS process, so a change to that module moves its number
and nothing else's.  Inputs are built from the seed; counts
(``overlay.route_hops_mean``, ``overlay.tree_height``, frame sizes)
repeat exactly for a given seed.
"""

from __future__ import annotations

import asyncio
import random
import time

from frames import hot_frames
from measure import Metric, median, time_per_call

import repro
from repro.core.anchor import HeapAnchorState, QueueAnchorState
from repro.core.batch import combine_runs
from repro.core.decompose import QueueDecomposer
from repro.core.requests import INSERT
from repro.dht.storage import QueueStore
from repro.net.runtime import NetOpRecord, NetRuntime, RecordTable
from repro.net.transport import CODEC_BINARY, FrameReader, encode_frame
from repro.ops.recovery import merge_records, plan_rebuild
from repro.overlay.ldb import LdbTopology
from repro.overlay.routing import route_on_topology
from repro.overlay.tree import tree_height
from repro.telemetry import MetricsRegistry

__all__ = ["micro_layers", "rebuild_plan_ms"]


def _transport(out: dict[str, Metric]) -> None:
    for name, frame in hot_frames().items():
        wire = encode_frame(frame, CODEC_BINARY)
        out[f"net.transport.bytes.{name}"] = (float(len(wire)), "B")
        out[f"net.transport.encode_us.{name}"] = (
            time_per_call(lambda: encode_frame(frame, CODEC_BINARY), 2000) * 1e6,
            "us")
        out[f"net.transport.decode_us.{name}"] = (
            time_per_call(lambda: list(FrameReader().feed(wire)), 2000) * 1e6,
            "us")


class _PingPong:
    """Stub actor: bounces every message to its peer through the
    runtime until the budget is spent."""

    def __init__(self, aid: int, peer: int, runtime: NetRuntime, state: dict) -> None:
        self.aid = aid
        self.peer = peer
        self.runtime = runtime
        self.state = state

    def handle(self, action: int, payload: tuple) -> None:
        state = self.state
        state["left"] -= 1
        if state["left"] > 0:
            self.runtime.send(self.peer, action, payload)
        else:
            state["done"].set_result(None)

    def timeout(self) -> None:
        pass


async def _local_deliver_seconds(messages: int) -> float:
    def no_remote(dest: int, action: int, payload: tuple) -> None:
        raise RuntimeError(f"local ping-pong tried to leave the host: {dest}")

    loop = asyncio.get_running_loop()
    runtime = NetRuntime(no_remote, sweep_seconds=0.0)
    runtime.start(loop)
    try:
        state = {"left": messages, "done": loop.create_future()}
        runtime.add_actor(_PingPong(1, 2, runtime, state))
        runtime.add_actor(_PingPong(2, 1, runtime, state))
        start = time.perf_counter()
        runtime.send(1, 0, (7, (1, 2, 3)))
        await state["done"]
        return (time.perf_counter() - start) / messages
    finally:
        runtime.close()


def _runtime(out: dict[str, Metric]) -> None:
    samples = [asyncio.run(_local_deliver_seconds(5000)) for _ in range(5)]
    out["net.runtime.local_deliver_us"] = (median(samples) * 1e6, "us")

    # add_local -> completed=True -> the host's DONE callback fires
    fired = []
    counter = iter(range(1, 1 << 30))
    table = RecordTable(0, 8, lambda req, fields: None)

    def complete_one() -> None:
        rec = NetOpRecord(next(counter) * 8, 0, 0, INSERT, None, 0.0)
        rec.on_completed = fired.append
        table.add_local(rec)
        table[rec.req_id].completed = True

    out["net.runtime.record_complete_us"] = (
        time_per_call(complete_one, 5000) * 1e6, "us")
    if not fired:
        raise RuntimeError("RecordTable completion never fired its callback")


def _core(rng: random.Random, out: dict[str, Metric]) -> None:
    # a wave's combined batch at the anchor: 64 alternating runs
    runs = [rng.randrange(1, 9) for _ in range(64)]
    queue_anchor = QueueAnchorState()
    out["core.anchor.assign_us.queue"] = (
        time_per_call(lambda: queue_anchor.assign(runs), 2000) * 1e6, "us")
    heap_runs = [rng.randrange(1, 9) for _ in range(5)]  # removes + 4 classes
    heap_anchor = HeapAnchorState(4)
    out["core.anchor.assign_us.heap"] = (
        time_per_call(lambda: heap_anchor.assign(heap_runs), 5000) * 1e6, "us")
    sub = [rng.randrange(0, 4) for _ in range(64)]
    target = list(runs)
    out["core.batch.combine_us"] = (
        time_per_call(lambda: combine_runs(target, sub), 5000) * 1e6, "us")
    assignments = QueueAnchorState().assign([r * 100_000 for r in runs])
    decomposer = QueueDecomposer(assignments)
    out["core.decompose.take_us"] = (
        time_per_call(lambda: decomposer.take(sub), 5000) * 1e6, "us")


def _overlay(seed: int, rng: random.Random, out: dict[str, Metric]) -> None:
    topology = LdbTopology(list(range(1000)), salt=f"perfbench-{seed}")
    vids = topology.vids
    routes = [(rng.choice(vids), rng.random()) for _ in range(1000)]
    start = time.perf_counter()
    hops = 0
    for src, target in routes:
        dest, hop_count, _ = route_on_topology(topology, src, target)
        hops += hop_count
    elapsed = time.perf_counter() - start
    out["overlay.route_step_us"] = (elapsed / hops * 1e6, "us")
    out["overlay.route_hops_mean"] = (hops / len(routes), "count")
    out["overlay.tree_height"] = (float(tree_height(topology)), "count")


def _dht(rng: random.Random, out: dict[str, Metric]) -> None:
    store = QueueStore()
    keys = iter([rng.random() for _ in range(200_000)])
    out["dht.put_us"] = (
        time_per_call(lambda: store.put(next(keys), ("req", 1)), 5000) * 1e6,
        "us")
    stored = iter(list(store.items))
    out["dht.get_us"] = (
        time_per_call(lambda: store.get(next(stored), ()), 2000) * 1e6, "us")


def _budget_lines(out: dict[str, Metric]) -> None:
    counter = MetricsRegistry().counter("perfbench_probe_total", "probe")
    out["telemetry.counter_inc_ns"] = (
        time_per_call(counter.inc, 50_000) * 1e9, "ns")
    # handle-API overhead: the same submissions through the session
    # (OpHandle + pid pick + checks) and straight into its backend
    calls = 4000
    with repro.connect("sync", n_processes=64, seed=1) as session:
        pids = iter([i % 64 for i in range(calls * 8)])
        via_handle = time_per_call(
            lambda: session.enqueue(None, pid=next(pids)), calls, repeats=3)
    with repro.connect("sync", n_processes=64, seed=1) as session:
        backend = session.backend
        pids = iter([i % 64 for i in range(calls * 8)])
        raw = time_per_call(
            lambda: backend.submit(next(pids), INSERT, None, 0), calls, repeats=3)
    out["api.submit_us"] = ((via_handle - raw) * 1e6, "us")


def rebuild_plan_ms(records) -> float:
    """``merge_records`` + ``plan_rebuild`` over one collected history
    (what the coordinator computes after a crash; grows with history)."""
    start = time.perf_counter()
    plan = plan_rebuild(merge_records([records]), "queue")
    elapsed = time.perf_counter() - start
    if plan.errors:
        raise RuntimeError(f"rebuild plan over a clean history: {plan.errors[:3]}")
    return elapsed * 1e3


def micro_layers(seed: int) -> dict[str, Metric]:
    rng = random.Random(f"perfbench-layers-{seed}")
    out: dict[str, Metric] = {}
    _transport(out)
    _runtime(out)
    _core(rng, out)
    _overlay(seed, rng, out)
    _dht(rng, out)
    _budget_lines(out)
    return out
