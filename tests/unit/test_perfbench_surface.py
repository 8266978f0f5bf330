"""The program surface the frozen ``perfbench/`` stands on, checked in
milliseconds.

``perfbench/`` may not be edited (``BENCHMARK.json`` lists it under
``paths``), so a rename in ``src/`` that it imports shows up only as a
failed benchmark run — after the PR.  This walks ``perfbench/*.py`` with
``ast``, resolves every ``from repro… import name``, and binds the
``encode_frame`` spellings perfbench uses and the constructor spellings
``perfbench/layers.py`` uses for the record plane.
It reads ``perfbench/`` and never edits it.
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
