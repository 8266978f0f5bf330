"""The three TCP workloads: closed loop, open loop, open loop with faults.

Each run launches real ``NodeHost`` OS processes through
``launch_local``, drives them from one generator (this process, one
event-loop thread, one ``SkueueClient`` = one connection per host),
and checks the merged history for sequential consistency after the
clock has stopped.  Only public entry points are used:
``launch_local``, ``NetDeployment.add_host/remove_host/kill_host/
cluster_map``, ``SkueueClient`` and the documented wire frames
(``health``, for the ops-plane log tail).
"""

from __future__ import annotations

import asyncio
import gc
import random
import socket
import sys
import time
from dataclasses import dataclass, field

from measure import (
    Metric,
    Spans,
    median,
    percentile,
    proc_cpu_seconds,
    proc_rss_kib,
    quiet_stretches,
)
from sim import model_rounds_per_op

from repro.core.requests import INSERT, REMOVE
from repro.net.client import SkueueClient
from repro.net.launcher import launch_local
from repro.net.transport import FrameReader, encode_frame
from repro.telemetry import trace_sampled
from repro.verify import check_queue_history

__all__ = [
    "SINGLE_HOST",
    "TCP_WORKLOADS",
    "BenchError",
    "TcpWorkload",
    "run_tcp",
]

#: Draw of the LDB labels of every deployment: draw 0, the one the
#: simulated clusters use and ISSUE 11 was sized on.  The topology is
#: part of the workload definition, not of its random input: at 6-8 pids
#: the aggregation tree's height (7-11 over draws 0-15) and the number
#: of its edges that cross hosts (4-7) move `tcp_closed` from 480 to
#: 1070 ops/s, which would drown every bound, so `--seed` draws
#: arrivals, op kinds and pids only.  Draw 0 has the median height, 9,
#: and the long tail (p99 about 20 x p50) the workloads were sized on.
TOPOLOGY_SEED = 0
#: the TCP runtime's nominal message delay, and the length of one round
#: when a TCP workload's load is replayed in the synchronous model
ROUND_SECONDS = 0.01
#: seconds of load before the measurement window opens (caches filled,
#: every pid has joined a wave, the client holds all its connections)
WARMUP_SECONDS = 3.0
#: an op not acknowledged this long after it was due counts as failed
OP_TIMEOUT = 5.0
#: cold starts timed per run for ``setup_s`` (the last one is the
#: deployment the run then uses)
SETUP_TRIALS = 5
#: host-side trace sampling of the ``--trace`` run
TRACE_SAMPLE = 0.05
#: share of open-loop arrivals that enqueue (the queue grows slowly, so
#: dequeues rarely find it empty)
ENQUEUE_SHARE = 0.55
#: slices of the window whose per-slice rates are medianed into
#: ``ops_per_s`` (robust to one noisy slice), and whose longest silences
#: are medianed into ``outage_s``
SLICES = 10
#: closed-loop callers start within this many seconds of each other, in
#: seeded order, not in lockstep
SLOT_STAGGER = 0.5
#: a refused submit (dead host still in the client's map) is offered to
#: the next live pid after this pause, keeping its original due time
REFUSED_PAUSE = 0.05

#: generator validity limits for open-loop runs
MAX_LATE_P99_MS = 20.0
MAX_GENERATOR_CORES = 0.7
MAX_BACKLOG_RATIO = 2.0
#: An invalid run is discarded and repeated, and the result says how
#: often (`gen.discarded_runs`): the generator shares two cores with
#: three hosts, and on the box the baseline was recorded on the whole VM
#: stalls for a few hundred ms now and then (about 1 run in 15 trips the
#: lateness limit on one such stall)
GENERATOR_ATTEMPTS = 3

_OP_ERRORS = (TimeoutError, ConnectionError, OSError, RuntimeError)


class BenchError(Exception):
    """The run is not a valid measurement (correctness gate or
    generator validity); the caller exits non-zero without metrics."""


class GeneratorInvalid(BenchError):
    """The load generator, not the program, shaped the numbers."""


@dataclass(frozen=True)
class TcpWorkload:
    name: str
    n_hosts: int
    n_pids: int
    id_slots: int
    slots: int = 0          # closed loop: concurrent submission slots
    rate: float = 0.0       # open loop: Poisson arrivals per second
    faults: bool = False

    @property
    def open_loop(self) -> bool:
        return self.rate > 0.0


TCP_WORKLOADS = {
    w.name: w
    for w in (
        TcpWorkload("tcp_closed", 3, 8, 8, slots=64),
        TcpWorkload("tcp_open", 3, 8, 8, rate=300.0),
        TcpWorkload("tcp_faults", 3, 6, 16, rate=100.0, faults=True),
    )
}
#: the no-peer-link baseline of the traced run (1 host, closed loop)
SINGLE_HOST = TcpWorkload("single_host", 1, 8, 8, slots=16)

#: Fault script.  The window is cut in `_KILLS` parts; in each, the
#: lowest-numbered host that is not the coordinator is SIGKILLed at
#: `_KILL_AT` of the part and a fresh host of the same size joins at
#: `_JOIN_AT`; the last one to join is drained out again at `_DRAIN_AT`
#: of the window.  One kill would do for the layers, but how long the
#: survivors take to notice depends on where in their 250 ms heartbeat
#: period it lands (measured: 0.9-1.5 s), so `outage_s` is the median
#: over the parts.  Ops stay due on schedule throughout and every
#: statistic covers the whole window.
_KILLS = 3
_KILL_AT, _JOIN_AT, _DRAIN_AT = 0.2, 0.6, 0.94
#: shortest window the script fits in (a join must not start before the
#: cluster has recovered from the kill before it)
_FAULTS_MIN_SECONDS = 15.0


@dataclass
class _Op:
    due: float
    call: float
    flushed: float
    done: float
    req: int
    kind: int
    item: int | None
    refused: int
    ok: bool


@dataclass
class _FaultLog:
    victims: list[int] = field(default_factory=list)
    kill_at: list[float] = field(default_factory=list)
    evicted_at: list[float] = field(default_factory=list)
    join_s: list[float] = field(default_factory=list)
    leave_s: float = 0.0
    error: Exception | None = None


@dataclass
class TcpResult:
    attempted: int
    failed: int
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric] = field(default_factory=dict)
    records: list = field(default_factory=list)
    spans: Spans = field(default_factory=Spans)


class _Run:
    """One deployment under load; state shared by its coroutines."""

    def __init__(self, workload: TcpWorkload, seed: int, seconds: float,
                 trace: bool, deployment, client: SkueueClient) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.deployment = deployment
        self.client = client
        # the whole load is drawn before the clock starts: the open
        # loop's (offset, kind, pid draw) from the start of the warm-up,
        # or the closed loop's (first submit, pid), the same number of
        # slots on every pid
        rng = random.Random(f"perfbench-{workload.name}-{seed}")
        self.arrivals: list[tuple[float, int, float]] = []
        self.slots: list[tuple[float, int]] = []
        if workload.open_loop:
            offset = rng.expovariate(workload.rate)
            while offset < WARMUP_SECONDS + seconds:
                kind = INSERT if rng.random() < ENQUEUE_SHARE else REMOVE
                self.arrivals.append((offset, kind, rng.random()))
                offset += rng.expovariate(workload.rate)
        else:
            self.slots = [(rng.random() * SLOT_STAGGER, slot % workload.n_pids)
                          for slot in range(workload.slots)]
        self.ops: list[_Op] = []
        self.spans = Spans()
        self.faults = _FaultLog()
        self.inflight = 0
        self.inflight_samples: list[tuple[float, int]] = []
        self.next_item = 0
        self.stop = False
        # host OS pid -> CPU seconds, as last seen by the sampler
        self.cpu_last: dict[int, float] = {}
        # readings at the two window edges: (host cpu, host rss KiB,
        # generator process CPU seconds)
        self.at_open: tuple[dict, dict, float] = ({}, {}, 0.0)
        self.at_close: tuple[dict, dict, float] = ({}, {}, 0.0)
        self.outbox_max = 0.0

    # -- one operation ---------------------------------------------------------
    async def one_op(self, due: float, kind: int, pid: int) -> None:
        """Submit one op, wait for its DONE, log the outcome.

        A submit that raises (the owner died and the client's map has
        not caught up) is offered to another live pid until a host
        takes it or ``OP_TIMEOUT`` since ``due`` has passed — what an
        independent user would do — so the outage shows as latency of
        ops that were due during it, and only an op nobody acknowledged
        in time is a failure.
        """
        client = self.client
        item = None
        if kind == INSERT:
            item = self.next_item
            self.next_item += 1
        self.inflight += 1
        call = time.perf_counter()
        deadline = due + OP_TIMEOUT
        req, flushed, done, refused, ok = -1, call, call, 0, False
        try:
            while True:
                try:
                    if kind == INSERT:
                        req = await client.enqueue(pid, item)
                    else:
                        req = await client.dequeue(pid)
                    break
                except (ConnectionError, OSError, KeyError):
                    refused += 1
                    if time.perf_counter() + REFUSED_PAUSE >= deadline:
                        raise TimeoutError("no host took the submit") from None
                    await asyncio.sleep(REFUSED_PAUSE)
                    pids = client.live_pids()
                    pid = pids[(pid + refused) % len(pids)]
            flushed = time.perf_counter()
            await client.wait(req, timeout=max(0.0, deadline - flushed))
            ok = True
        except _OP_ERRORS:
            pass
        finally:
            done = time.perf_counter()
            self.inflight -= 1
        self.ops.append(
            _Op(due, call, flushed, done, req, kind, item, refused, ok)
        )

    # -- load generators -------------------------------------------------------
    async def closed_slot(self, first: float, pid: int) -> None:
        await asyncio.sleep(first)
        kind = INSERT
        while not self.stop:
            await self.one_op(time.perf_counter(), kind, pid)
            kind = REMOVE if kind == INSERT else INSERT

    async def open_loop(self, start: float) -> None:
        """Poisson arrivals from ``start``; every op is its own task so
        a slow op never delays the next arrival."""
        tasks: set[asyncio.Task] = set()
        for offset, kind, draw in self.arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pids = self.client.live_pids()
            task = asyncio.ensure_future(
                self.one_op(due, kind, pids[int(draw * len(pids))])
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)

    # -- sampling --------------------------------------------------------------
    def sample_cpu(self) -> None:
        for proc in list(self.deployment.processes):
            cpu = proc_cpu_seconds(proc.pid)
            if cpu is not None:
                self.cpu_last[proc.pid] = cpu

    def window_edge(self) -> tuple[dict, dict, float]:
        self.sample_cpu()
        rss = {
            proc.pid: kib for proc in list(self.deployment.processes)
            if (kib := proc_rss_kib(proc.pid)) is not None
        }
        return dict(self.cpu_last), rss, time.process_time()

    async def sampler(self) -> None:
        """Every 100 ms: in-flight ops and host CPU (so a host that is
        killed or drains out mid-window keeps its last reading)."""
        while not self.stop:
            self.inflight_samples.append((time.perf_counter(), self.inflight))
            self.sample_cpu()
            await asyncio.sleep(0.1)

    async def telemetry_poller(self) -> None:
        """Traced runs without faults only (a host killed mid-poll would
        leave the client waiting for its answer): once a second, the
        peer-outbox depth."""
        while not self.stop:
            telemetry = await self.client.host_telemetry(timeout=10.0)
            for data in telemetry.values():
                depth = _series(data["registry"], "skueue_peer_outbox_frames")
                self.outbox_max = max(self.outbox_max, depth)
            await asyncio.sleep(1.0)

    # -- fault script (runs in a worker thread) -------------------------------
    def fault_script(self, window_start: float) -> None:
        deployment = self.deployment
        faults = self.faults
        spans = self.spans

        def sleep_until(share: float) -> None:
            time.sleep(max(0.0, window_start + share * self.seconds
                           - time.perf_counter()))

        try:
            joined = -1
            for part in range(_KILLS):
                sleep_until((part + _KILL_AT) / _KILLS)
                victim = sorted(deployment.host_map)[1]
                killed = time.perf_counter()
                deployment.kill_host(victim, wait_evicted=False)
                # poll finer than kill_host's own 200 ms wait loop
                while victim in deployment.cluster_map().hosts:
                    if time.perf_counter() - killed > 30.0:
                        raise TimeoutError(f"host {victim} never evicted")
                    time.sleep(0.02)
                evicted = time.perf_counter()
                faults.victims.append(victim)
                faults.kill_at.append(killed)
                faults.evicted_at.append(evicted)
                spans.add("kill_host", killed, evicted)
                sleep_until((part + _JOIN_AT) / _KILLS)
                t0 = time.perf_counter()
                joined = deployment.add_host(
                    n_pids=self.workload.n_pids // self.workload.n_hosts)
                faults.join_s.append(time.perf_counter() - t0)
                spans.add("add_host", t0, t0 + faults.join_s[-1])
            sleep_until(_DRAIN_AT)
            t0 = time.perf_counter()
            deployment.remove_host(joined)
            faults.leave_s = time.perf_counter() - t0
            spans.add("remove_host", t0, t0 + faults.leave_s)
        except Exception as exc:  # re-raised by the run, on the loop
            faults.error = exc


_NO_TELEMETRY = {"summary": {}, "phases": {}, "registry": {}}


def _series(registry: dict, name: str, labels: str = "") -> float:
    return float(registry.get(name, {}).get(labels, 0.0))


def _status_logs(host_map: dict) -> list[str]:
    """Ops-log tails of every live host, over the ``health`` frame."""
    lines: list[str] = []
    for address in host_map.values():
        try:
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(encode_frame({"op": "health", "detail": "status"}))
                frames = FrameReader()
                while data := sock.recv(65536):
                    replies = [m for m in frames.feed(data)
                               if m.get("op") == "health"]
                    if replies:
                        lines.extend(replies[0].get("log", ()))
                        break
        except OSError:
            continue
    return lines


async def _cold_start(workload: TcpWorkload, trace: bool):
    """launch_local -> connect -> first enqueue acknowledged."""
    start = time.perf_counter()
    deployment = launch_local(
        workload.n_hosts, workload.n_pids, seed=TOPOLOGY_SEED,
        round_seconds=ROUND_SECONDS, id_slots=workload.id_slots,
        trace_sample=TRACE_SAMPLE if trace else 0.0,
    )
    try:
        client = SkueueClient(deployment.host_map)
        await client.connect()
        try:
            req = await client.enqueue(0, "setup")
            await client.wait(req, timeout=30.0)
        except BaseException:
            await client.close()
            raise
    except BaseException:
        deployment.close()
        raise
    return time.perf_counter() - start, deployment, client


async def _measure(run: _Run) -> tuple[float, dict, dict]:
    """Warm up, hold the window open, drain.  Returns the window start
    and the host telemetry at its two ends (traced runs only)."""
    workload, client = run.workload, run.client
    loop = asyncio.get_running_loop()
    begin = time.perf_counter()
    window_start = begin + WARMUP_SECONDS
    window_end = window_start + run.seconds
    if workload.open_loop:
        load = [asyncio.ensure_future(run.open_loop(begin))]
    else:
        load = [asyncio.ensure_future(run.closed_slot(first, pid))
                for first, pid in run.slots]
    helpers = [asyncio.ensure_future(run.sampler())]
    if run.trace and not workload.faults:
        helpers.append(asyncio.ensure_future(run.telemetry_poller()))
    script = None
    telemetry_start: dict = {}
    telemetry_end: dict = {}
    # a collector pause would read as generator lateness and as latency;
    # the run is short enough to let garbage wait
    gc.disable()
    try:
        await asyncio.sleep(window_start - time.perf_counter())
        if run.trace:
            telemetry_start = await client.host_telemetry()
        run.at_open = run.window_edge()
        if workload.faults:
            script = loop.run_in_executor(None, run.fault_script, window_start)
        await asyncio.sleep(window_end - time.perf_counter())
        if script is not None:
            await script  # ends with the window; no host may be mid-drain
            if run.faults.error is not None:
                raise run.faults.error
        run.at_close = run.window_edge()
        if run.trace:
            telemetry_end = await client.host_telemetry()
        run.stop = True
        await asyncio.gather(*load)
        await asyncio.gather(*helpers)
    finally:
        gc.enable()
        run.stop = True
        for task in load + helpers:
            task.cancel()
        await asyncio.gather(*load, *helpers, return_exceptions=True)
    return window_start, telemetry_start, telemetry_end


async def _drive(workload: TcpWorkload, seed: int, seconds: float,
                 trace: bool) -> TcpResult:
    setup_times = []
    deployment = client = None
    for _ in range(SETUP_TRIALS):
        if deployment is not None:
            await client.close()
            deployment.close()
        took, deployment, client = await _cold_start(workload, trace)
        setup_times.append(took)
    run = _Run(workload, seed, seconds, trace, deployment, client)
    try:
        window_start, tel0, tel1 = await _measure(run)
        t0 = time.perf_counter()
        records = await client.collect_records(timeout=60.0)
        run.spans.add("collect_records", t0, time.perf_counter())
        logs = _status_logs(deployment.host_map) if trace else []
        cluster = deployment.cluster_map() if workload.faults else None
    finally:
        await client.close()
        deployment.close()
    return _report(run, records, setup_times, window_start,
                   tel0, tel1, logs, cluster)


def _report(run: _Run, records, setup_times, window_start,
            tel0, tel1, logs, cluster) -> TcpResult:
    workload, seconds = run.workload, run.seconds
    window_end = window_start + seconds
    # -- correctness gate (outside the clock) ----------------------------------
    t0 = time.perf_counter()
    check_queue_history(records)
    if workload.faults:
        _check_fault_history(run, records, cluster)
    verify_s = time.perf_counter() - t0
    run.spans.add("verify", t0, t0 + verify_s)

    # every op due in the window is attempted and in the statistics
    attempted = [op for op in run.ops if window_start <= op.due < window_end]
    acked = [op for op in attempted if op.ok]
    if not acked:
        raise BenchError(f"{workload.name}: no op acknowledged in the window")
    latencies = sorted(op.done - op.due for op in acked)
    done_times = sorted(
        op.done for op in run.ops if op.ok and window_start <= op.done < window_end
    )
    width = seconds / SLICES
    per_slice = [0] * SLICES
    for done in done_times:
        per_slice[min(SLICES - 1, int((done - window_start) / width))] += 1
    # one part per kill, so that each holds one outage; without faults
    # the slices (where the silences are the gaps between waves)
    silences = quiet_stretches(done_times, window_start, seconds,
                               _KILLS if workload.faults else SLICES)
    cpu_open, rss_open, gen_open = run.at_open
    cpu_close, rss_close, gen_close = run.at_close
    # a host that joined mid-window starts from 0; one that died or
    # drained out keeps the sampler's last reading of it
    host_cpu = sum(cpu - cpu_open.get(pid, 0.0) for pid, cpu in cpu_close.items())
    ops = len(done_times)
    model_rounds = int((WARMUP_SECONDS + seconds) / ROUND_SECONDS)
    end_to_end: dict[str, Metric] = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (median(per_slice) / width, "1/s"),
        "p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
        # this run's own load (without the faults) on its own overlay in
        # the synchronous model: a count, so it repeats
        "rounds_per_op": (model_rounds_per_op(
            workload.n_pids, TOPOLOGY_SEED, model_rounds,
            [(int(offset / ROUND_SECONDS), kind, int(draw * workload.n_pids))
             for offset, kind, draw in run.arrivals],
            [(int(first / ROUND_SECONDS), pid) for first, pid in run.slots]),
            "rounds"),
        "outage_s": (median(end - begin for begin, end in silences), "s"),
        "host_cpu_ms_per_op": (host_cpu * 1e3 / ops, "ms"),
        "host_rss_mb": (max(rss_close.values()) / 1024.0, "MiB"),
    }
    result = TcpResult(
        attempted=len(attempted),
        failed=sum(not op.ok for op in attempted),
        end_to_end=end_to_end,
        records=records,
        spans=run.spans,
    )
    layers = result.per_layer
    # -- generator validity ----------------------------------------------------
    late = sorted(op.call - op.due for op in attempted)
    samples = [n for t, n in run.inflight_samples
               if window_start <= t < window_end]
    fifth = max(1, len(samples) // 5)
    layers["net.client.cpu_us_per_op"] = ((gen_close - gen_open) * 1e6 / ops, "us")
    layers["net.server.rss_kb_per_kop"] = (
        sum(kib - rss_open[pid] for pid, kib in rss_close.items()
            if pid in rss_open) * 1e3 / ops, "KiB")
    layers["verify.check_us_per_op"] = (verify_s * 1e6 / len(records), "us")
    layers["gen.cores"] = ((gen_close - gen_open) / seconds, "cores")
    layers["gen.late_p99_ms"] = (percentile(late, 0.99) * 1e3, "ms")
    # means over the first and the last fifth of the window: a single
    # reading catches whichever wave happens to be in flight
    layers["gen.inflight_start"] = (sum(samples[:fifth]) / fifth, "count")
    layers["gen.inflight_end"] = (sum(samples[-fifth:]) / fifth, "count")
    layers["gen.inflight_mean"] = (sum(samples) / len(samples), "count")
    layers["gen.refused_submits"] = (
        float(sum(op.refused for op in attempted)), "count")
    if workload.open_loop:
        _check_generator(workload, layers)
    if workload.faults:
        faults = run.faults
        layers["ops.detect_s"] = (
            median(evicted - killed for killed, evicted
                   in zip(faults.kill_at, faults.evicted_at)), "s")
        # eviction published -> first op acknowledged again
        layers["ops.recover_s"] = (
            median(resumed - evicted for (_, resumed), evicted
                   in zip(silences, faults.evicted_at)), "s")
        layers["membership.join_integrate_s"] = (median(faults.join_s), "s")
        layers["membership.leave_drain_s"] = (faults.leave_s, "s")
    if run.trace:
        _trace_layers(run, layers, tel0, tel1, ops, logs)
        _op_spans(run, attempted)
    return result


def _check_generator(workload: TcpWorkload, layers: dict[str, Metric]) -> None:
    late = layers["gen.late_p99_ms"][0]
    cores = layers["gen.cores"][0]
    end = layers["gen.inflight_end"][0]
    mean = layers["gen.inflight_mean"][0]
    problems = []
    if late > MAX_LATE_P99_MS:
        problems.append(f"lateness p99 {late:.1f} ms > {MAX_LATE_P99_MS} ms")
    if cores > MAX_GENERATOR_CORES:
        problems.append(f"generator used {cores:.2f} cores "
                        f"> {MAX_GENERATOR_CORES}")
    if end > MAX_BACKLOG_RATIO * max(mean, 1.0):
        problems.append(f"in flight at window end {end:.0f} > "
                        f"{MAX_BACKLOG_RATIO} x window mean {mean:.1f}: "
                        "backlog growing, the rate is not sustainable")
    if problems:
        raise GeneratorInvalid(f"{workload.name}: generator invalid: "
                               + "; ".join(problems))


def _check_fault_history(run: _Run, records, cluster) -> None:
    """Nothing acknowledged before the last kill may be missing
    afterwards (which covers the kills before it)."""
    missing = set(run.faults.victims) - set(cluster.departed)
    if missing:
        raise BenchError(f"killed hosts {sorted(missing)} are not in "
                         "cluster_map().departed")
    completed = {rec.req_id for rec in records if rec.completed}
    inserted = {rec.item for rec in records
                if rec.completed and rec.kind == INSERT}
    kill_at = run.faults.kill_at[-1]
    lost_inserts = [
        op.item for op in run.ops
        if op.ok and op.done < kill_at and op.kind == INSERT
        and op.item not in inserted
    ]
    if lost_inserts:
        raise BenchError(f"{len(lost_inserts)} enqueues acknowledged before "
                         f"the kill are not in the merged history: "
                         f"{lost_inserts[:5]}")
    # a removal the client resubmitted after a `rejected` completes under
    # its replacement id, so allow exactly that many unmatched ids
    lost_removes = [
        op.req for op in run.ops
        if op.ok and op.done < kill_at and op.kind != INSERT
        and op.req not in completed
    ]
    if len(lost_removes) > run.client.rejected_resubmits:
        raise BenchError(f"{len(lost_removes)} dequeues acknowledged before "
                         "the kill are not completed in the merged history")


def _merged_phase(tel: dict, phase: str, key: str) -> float:
    """Merge one phase statistic over hosts: count-weighted for ``p50``
    and ``mean`` (hosts expose summaries, not buckets), worst host for
    ``p99``."""
    stats = [data["phases"].get(phase) or {} for data in tel.values()]
    stats = [s for s in stats if s.get("count")]
    if not stats:
        return 0.0
    if key == "p99":
        return max(s["p99"] for s in stats)
    total = sum(s["count"] for s in stats)
    return sum(s[key] * s["count"] for s in stats) / total


def _trace_layers(run: _Run, layers: dict[str, Metric], tel0: dict,
                  tel1: dict, ops: int, logs) -> None:
    def grown(read) -> float:
        """Σ over hosts of ``read(telemetry)`` now minus at the window
        start (a host that joined since starts from an empty answer)."""
        return sum(read(data) - read(tel0.get(host, _NO_TELEMETRY))
                   for host, data in tel1.items())

    def delta(name: str, labels: str = "") -> float:
        return grown(lambda data: _series(data["registry"], name, labels))

    frames_out = delta("skueue_frames_total", '{direction="out"}')
    writes = grown(
        lambda data: (data["registry"].get("skueue_write_batch_frames", {})
                      .get("") or {}).get("count", 0))
    layers["net.server.frames_in_per_op"] = (
        delta("skueue_frames_total", '{direction="in"}') / ops, "count")
    layers["net.server.frames_out_per_op"] = (frames_out / ops, "count")
    layers["net.server.bytes_out_per_op"] = (
        delta("skueue_bytes_total", '{direction="out"}') / ops, "B")
    layers["net.server.frames_per_write"] = (
        frames_out / writes if writes else 0.0, "count")
    layers["net.server.peer_outbox_max"] = (run.outbox_max, "count")
    layers["wave.msgs_per_op"] = (
        grown(lambda data: data["summary"].get("messages", 0)) / ops, "count")
    layers["wave.max_batch_len"] = (
        float(max(data["summary"].get("max_batch_len", 0)
                  for data in tel1.values())), "count")
    layers["wave.nudge_probes"] = (
        delta("skueue_wave_nudge_probes_total"), "count")
    layers["wave.force_fires"] = (
        delta("skueue_wave_force_fires_total"), "count")
    # hosts expose phase summaries, not buckets, so these (unlike the
    # counters above) cannot be differenced: they cover the hosts' whole
    # lives, warm-up and setup op included
    for phase in ("buffer", "wave", "deliver"):
        for key in ("p50", "p99"):
            layers[f"wave.{phase}_{key}_ms"] = (
                _merged_phase(tel1, phase, key) * 1e3, "ms")
    layers["wave.hops_mean"] = (_merged_phase(tel1, "hops", "mean"), "count")
    layers["ops.suspects_seen"] = (
        float(sum("suspecting host" in line for line in logs)), "count")


def _op_spans(run: _Run, ops: list[_Op]) -> None:
    """Spans of the ops the hosts traced too (same deterministic draw):
    ``op`` covers due -> DONE; its children are the generator's
    lateness, the submit call (call -> frame flushed) and the cluster
    round trip (flushed -> DONE)."""
    spans = run.spans
    rate = run.client.trace_sample
    for op in ops:
        if not op.ok or not trace_sampled(op.req, rate):
            continue
        parent = spans.add("op", op.due, op.done, req=op.req)
        if op.call > op.due:
            spans.add("gen.late", op.due, op.call, parent, op.req)
        spans.add("client.submit", op.call, op.flushed, parent, op.req)
        spans.add("cluster.roundtrip", op.flushed, op.done, parent, op.req)


def run_tcp(workload: TcpWorkload, seed: int, seconds: float,
            trace: bool) -> TcpResult:
    if not seconds > 0:  # also catches NaN
        raise ValueError("--seconds must be positive")
    if workload.faults and seconds < _FAULTS_MIN_SECONDS:
        raise BenchError(f"{workload.name}: the fault script needs a window "
                         f"of {_FAULTS_MIN_SECONDS:.0f} s or more")
    for discarded in range(GENERATOR_ATTEMPTS):
        try:
            result = asyncio.run(_drive(workload, seed, seconds, trace))
        except GeneratorInvalid as exc:
            # the instrument failed, not the program: discard the run and
            # measure again; the last invalid run is reported as such
            if discarded == GENERATOR_ATTEMPTS - 1:
                raise
            print(f"perfbench: {exc}; repeating the run "
                  f"({discarded + 1}/{GENERATOR_ATTEMPTS - 1})", file=sys.stderr)
        else:
            result.per_layer["gen.discarded_runs"] = (float(discarded), "count")
            return result
    raise AssertionError("unreachable")
