"""Micro-benchmark: handle-API submission overhead vs the raw facade.

The unified API wraps every operation in an ``OpHandle`` and routes it
through the session; this measures what that costs relative to calling
the session's backend, the :class:`SkueueCluster`, directly, on an
identical deterministic workload (same seed, same ops, sync runner,
delivery shuffling off).  The measured unit is wall-clock per completed
run; simulated rounds are reported as extra info (they must be
*identical* — the API adds Python-call overhead, never protocol work).

CI runs this file with ``--benchmark-json`` and uploads the result next
to the fig2 smoke artifact, so submission-path regressions show up as a
ratio drift between the two benchmarks here.
"""

from __future__ import annotations

import os

from repro.api import connect
from repro.core.cluster import SkueueCluster
from repro.core.requests import INSERT, REMOVE

N_PROCESSES = int(os.environ.get("SKUEUE_FULL", 0)) and 256 or 64
OPS = int(os.environ.get("SKUEUE_FULL", 0)) and 4000 or 800
SEED = 13


def _ops():
    """The shared deterministic op stream: (pid, kind, item) triples."""
    out = []
    for i in range(OPS):
        pid = (i * 7) % N_PROCESSES
        kind = INSERT if i % 3 != 2 else REMOVE
        out.append((pid, kind, f"item-{i}" if kind == INSERT else None))
    return out


def _run_raw():
    with SkueueCluster(
        n_processes=N_PROCESSES, seed=SEED, shuffle_delivery=False
    ) as cluster:
        for pid, kind, item in _ops():
            cluster.submit(pid, kind, item)
        cluster.run_until_done()
        return cluster.runtime.round, cluster.metrics.completed


def _run_handles():
    with connect(
        "sync", n_processes=N_PROCESSES, seed=SEED, shuffle_delivery=False
    ) as session:
        handles = session.submit_batch(
            [
                ("enqueue", item, pid) if kind == INSERT else ("dequeue", pid)
                for pid, kind, item in _ops()
            ]
        )
        session.drain()
        return session.cluster.runtime.round, len(handles)


def test_raw_facade_submission(benchmark):
    rounds, completed = benchmark(_run_raw)
    assert completed == OPS
    benchmark.extra_info["simulated_rounds"] = rounds
    benchmark.extra_info["ops"] = OPS


def test_handle_api_submission(benchmark):
    rounds, completed = benchmark(_run_handles)
    assert completed == OPS
    benchmark.extra_info["simulated_rounds"] = rounds
    benchmark.extra_info["ops"] = OPS


def test_api_does_no_extra_protocol_work():
    """The handle layer must not change what the engine executes."""
    raw_rounds, _ = _run_raw()
    api_rounds, _ = _run_handles()
    assert api_rounds == raw_rounds
