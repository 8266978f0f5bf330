"""The program surface the frozen ``perfbench/`` stands on, checked in
milliseconds.

``perfbench/`` may not be edited (``BENCHMARK.json`` lists it under
``paths``), so a rename in ``src/`` that it imports shows up only as a
failed benchmark run — after the PR.  This walks ``perfbench/*.py`` with
``ast``, resolves every ``from repro… import name``, and binds the
``encode_frame`` spellings perfbench uses and the constructor spellings
``perfbench/layers.py`` uses for the record plane, and runs the
simulator calls of ``perfbench/sim.py`` and ``layers.py`` (sessions whose
backend is the cluster, the cluster itself, ``run_experiment``) on tiny
cells.  It reads ``perfbench/`` and never edits it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.core.requests import INSERT

PERFBENCH = Path(repro.__file__).resolve().parents[2] / "perfbench"


def _imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "repro"):
                for alias in node.names:
                    yield pytest.param(
                        node.module, alias.name,
                        id=f"{path.name}:{node.module}.{alias.name}",
                    )


IMPORTS = list(_imports())


def test_perfbench_is_where_it_is_expected():
    assert (PERFBENCH / "layers.py").is_file() and IMPORTS


@pytest.mark.parametrize("module, name", IMPORTS)
def test_every_name_perfbench_imports_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"perfbench imports {name} from {module}, which no longer has it"
    )


def test_frame_spellings_of_perfbench_bind_and_round_trip():
    """``frames.py``/``layers.py`` name the binary codec; ``tcp.py``
    leaves the codec to the wire rule (a ``health`` frame: binary)."""
    from repro.net.transport import (
        CODEC_BINARY,
        CODEC_TAGS,
        FrameReader,
        encode_frame,
    )

    named = {"op": "msg", "dest": 5, "action": 2, "payload": [1, 2]}
    inspect.signature(encode_frame).bind(named, CODEC_BINARY)
    probe = {"op": "health", "detail": "status"}
    inspect.signature(encode_frame).bind(probe)
    for frame, wire in ((named, encode_frame(named, CODEC_BINARY)),
                        (probe, encode_frame(probe))):
        assert wire[0] == CODEC_TAGS[CODEC_BINARY]
        assert list(FrameReader().feed(wire)) == [frame]


def test_record_plane_spellings_of_layers_py_bind_and_run():
    from repro.net.runtime import NetOpRecord, NetRuntime, RecordTable
    from repro.ops.recovery import merge_records, plan_rebuild

    def bind(func, *args, **kwargs):
        inspect.signature(func).bind(*args, **kwargs)

    def no_remote(dest, action, payload):
        raise AssertionError("remote send")

    bind(RecordTable, 0, 8, lambda req, fields: None)
    bind(NetOpRecord, 8, 0, 0, INSERT, None, 0.0)
    bind(RecordTable.add_local, None, None)
    bind(NetRuntime, no_remote, sweep_seconds=0.0)
    bind(merge_records, [[]])
    bind(plan_rebuild, {}, "queue")
    # the probe itself: add_local -> completed = True -> the callback
    fired = []
    table = RecordTable(0, 8, lambda req, fields: None)
    rec = NetOpRecord(8, 0, 0, INSERT, None, 0.0)
    rec.on_completed = fired.append
    rec.value = 1
    table.add_local(rec)
    table[rec.req_id].completed = True
    assert fired == [rec]
    NetRuntime(no_remote, sweep_seconds=0.0).close()
    assert not plan_rebuild(merge_records([[rec]]), "queue").errors


def _connect_like_sim_py(runner: str, structure: str, max_rounds: int = 10**9):
    kwargs = {"shuffle_delivery": False} if runner == "sync" else {}
    return repro.connect(
        runner, structure=structure, n_processes=8, seed=0,
        max_rounds=max_rounds, store_samples=True, n_priorities=4, **kwargs,
    )


@pytest.mark.parametrize("runner, structure",
                         [("sync", "queue"), ("sync", "heap"), ("async", "queue")])
def test_session_spellings_of_sim_py_bind_and_run(runner, structure):
    """``sim.py``'s cells: a session whose backend is the cluster, driven
    by ``backend.submit`` and ``cluster.step``, drained, read through
    ``cluster.metrics`` and verified."""
    from repro.core.requests import REMOVE

    with _connect_like_sim_py(runner, structure) as session:
        cluster, backend = session.cluster, session.backend
        assert backend is cluster
        inspect.signature(backend.submit).bind(0, INSERT, None, 3)
        first = backend.submit(0, INSERT, None, 3 if structure == "heap" else 0)
        backend.submit(1, REMOVE, None, 0)
        cluster.step()
        assert backend.is_done(first) in (False, True)
        session.drain()
        assert backend.is_done(first)
        metrics = cluster.metrics
        assert metrics.generated == metrics.completed == 2
        assert metrics.messages > 0 and metrics.max_batch_len >= 1
        assert metrics.mean_latency() > 0 and cluster.now > 0
        for stat in metrics.latency.values():
            assert stat.count == len(stat.samples) and stat.mean > 0
        assert len(session.verify()) == 2


def test_a_drain_past_the_bound_raises_runtime_error():
    with _connect_like_sim_py("sync", "queue", max_rounds=1) as session:
        session.backend.submit(0, INSERT, None, 0)
        with pytest.raises(RuntimeError):
            session.drain()


def test_handle_and_backend_spellings_of_layers_py_bind_and_run():
    with repro.connect("sync", n_processes=8, seed=1) as session:
        handle = session.enqueue(None, pid=3)
        req = session.backend.submit(4, INSERT, None, 0)
        session.drain()
        assert handle.result() is True and session.backend.is_done(req)


def test_cluster_and_experiment_spellings_of_sim_py_bind_and_run():
    from repro import SkueueCluster
    from repro.experiments import run_experiment
    from repro.experiments.workload import PerNodeWorkload

    with SkueueCluster(8, seed=0, shuffle_delivery=False) as cluster:
        cluster.run_until_settled()
        start = cluster.now
        cluster.join()
        cluster.run_until_settled()
        cluster.leave(5)
        cluster.run_until_settled()
        assert cluster.now > start
        assert len(cluster.occupancies()) == 3 * 8
    stack = run_experiment(
        PerNodeWorkload(8, 0.5, seed=0), 8, 20, structure="stack", seed=0,
        verify=True,
    )
    assert stack.mean_rounds_per_request > 0
