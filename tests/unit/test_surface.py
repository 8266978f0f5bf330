"""The option census, pinned as code.

Every independently settable value doubles the configurations tests and
benchmarks have to cover, so the settable surface is stated here
exactly: a PR that adds (or removes) a keyword, a config field, a CLI
flag or an environment variable has to edit this file and say so.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import inspect
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import repro
from repro import SkueueCluster
from repro.experiments.harness import run_experiment
from repro.net.client import SkueueClient
from repro.net.launcher import launch_local, main
from repro.net.server import PER_HOST_FIELDS, HostConfig
from repro.net.transport import FRAME_TYPES
from repro.ops.detector import FailureDetector
from repro.ops.health import ROUTES
from repro.sim import AsyncRunner, SyncRunner
from repro.telemetry import Tracer
from repro.verify.models import QueueModel

HOST_CONFIG_FIELDS = (
    "host_index", "n_hosts", "n_processes", "seed", "bind_host", "port",
    "round_seconds", "epoch", "structure", "id_slots", "n_priorities",
    "owned", "trace_sample",
)


def _functions_outside(source: Path, skipped_class: str):
    """``(function, its nodes)`` for each function of ``source``, the
    body of ``skipped_class`` left out."""
    tree = ast.parse(source.read_text())
    tree.body = [
        node for node in tree.body
        if not (isinstance(node, ast.ClassDef) and node.name == skipped_class)
    ]
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            yield func.name, list(ast.walk(func))


def _parameters(func) -> tuple[str, ...]:
    names = tuple(inspect.signature(func).parameters)
    return names[1:] if names[0] == "self" else names


class TestOptionCensus:
    def test_launch_local(self):
        assert _parameters(launch_local) == (
            "n_hosts", "n_processes", "seed", "structure", "round_seconds",
            "id_slots", "n_priorities", "trace_sample",
        )

    def test_skueue_client(self):
        assert _parameters(SkueueClient.__init__) == (
            "host_map", "trace_sample",
        )

    def test_skueue_cluster(self):
        # `structure` replaced the choice among three classes and
        # `max_rounds` moved here from the deleted session adapter
        assert _parameters(SkueueCluster.__init__) == (
            "n_processes", "seed", "runner", "structure", "delay_policy",
            "shuffle_delivery", "store_samples", "n_priorities",
            "trace_sample", "max_rounds",
        )

    def test_connect(self):
        assert _parameters(repro.connect) == (
            "backend", "structure", "n_processes", "seed", "kwargs",
        )

    def test_run_experiment(self):
        assert _parameters(run_experiment) == (
            "workload", "n_processes", "rounds", "structure", "seed",
            "max_drain_rounds", "verify", "n_priorities",
        )

    def test_host_config_fields(self):
        names = tuple(f.name for f in dataclasses.fields(HostConfig))
        assert names == HOST_CONFIG_FIELDS

    def test_scenario_fields(self):
        from repro.testing.scenario import Scenario

        names = tuple(f.name for f in dataclasses.fields(Scenario))
        assert names == (
            "seed", "structure", "runner", "n_processes", "n_priorities",
            "delay", "shuffle_delivery", "ops", "churn", "aborts", "crashes",
            "settle_budget",
        )

    def test_simulator_runners(self):
        assert _parameters(SyncRunner.__init__) == (
            "rng", "metrics", "shuffle_delivery",
        )
        assert _parameters(AsyncRunner.__init__) == (
            "rng", "metrics", "delay_policy",
        )

    def test_failure_detector_takes_no_tuning(self):
        assert _parameters(FailureDetector.__init__) == ()

    def test_skueue_node_demo_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {
            "--help", "--hosts", "--processes", "--ops", "--seed",
            "--structure",
        }

    def test_environment_variables(self):
        root = Path(repro.__file__).resolve().parent
        names = set()
        for source in root.rglob("*.py"):
            names.update(re.findall(r"SKUEUE_[A-Z_]+", source.read_text()))
        assert names == set()

    def test_tracer(self):
        # ring sizes and the span cap are class constants; the slow ring
        # sets its own threshold
        assert _parameters(Tracer.__init__) == (
            "sample_rate", "clock", "host", "time_scale", "phase_buckets",
        )

    def test_frame_types(self):
        assert len(FRAME_TYPES) == 37
        assert not {"ping", "pong"} & set(FRAME_TYPES)

    def test_http_routes(self):
        assert tuple(ROUTES) == ("/health", "/metrics", "/trace", "/profile")


class TestHostConfigStatedOnce:
    """``to_json`` and the ``join_ok`` config derive from the dataclass:
    a field added to it cannot silently miss either of them."""

    def _off_default(self) -> HostConfig:
        return HostConfig(
            host_index=2, n_hosts=3, n_processes=9, seed=7,
            bind_host="0.0.0.0", port=4001, round_seconds=0.02, epoch=12.5,
            structure="heap", id_slots=16, n_priorities=6, owned=[9, 10],
            trace_sample=0.25,
        )

    def test_every_field_is_off_default(self):
        # the round-trip below proves nothing for a field left at its
        # default, so a new field has to be set in _off_default too
        cfg = self._off_default()
        base = HostConfig(host_index=0, n_hosts=1, n_processes=1)
        for name in HOST_CONFIG_FIELDS:
            assert getattr(cfg, name) != getattr(base, name), name

    def test_json_round_trip(self):
        cfg = self._off_default()
        assert HostConfig.from_json(cfg.to_json()) == cfg

    def test_join_config_carries_every_shared_field(self):
        cfg = self._off_default()
        shared = cfg.shared_json()
        assert set(shared) == set(HOST_CONFIG_FIELDS) - set(PER_HOST_FIELDS)
        for name, value in shared.items():
            assert value == getattr(cfg, name), name
        # what a joining host does with it (run_joining_host)
        joiner = HostConfig(host_index=5, owned=[20], **shared)
        assert joiner.n_priorities == 6 and joiner.trace_sample == 0.25
        assert PER_HOST_FIELDS == (
            "host_index", "bind_host", "port", "owned",
        )
        assert joiner.salt == cfg.salt == "skueue-7"

    @pytest.mark.parametrize("name", [
        "timeout_lag", "sweep_seconds", "salt", "heartbeat_seconds",
        "miss_threshold", "confirm_seconds", "replication", "ops_port",
        "trace_slow_ms",
    ])
    def test_a_removed_key_is_refused(self, name):
        data = self._off_default().to_json()
        data[name] = data["round_seconds"]
        with pytest.raises(TypeError):
            HostConfig.from_json(data)


@pytest.mark.parametrize("backend", ["sync", "async"])
def test_connect_refuses_a_profile(backend):
    with pytest.raises(TypeError):
        repro.connect(backend, profile=None)


class _SpyModel(QueueModel):
    """A queue model that records who built it: the checker builds it
    with no class count, the rebuild with ``n_priorities``."""

    built: list = []

    def __init__(self, n_priorities: int | None = None) -> None:
        super().__init__()
        self.built.append("checker" if n_priorities is None else "rebuild")


class TestStructurePlane:
    """Queue, stack and heap are three disciplines on one node: what a
    structure may vary is a field of ``StructureSpec``, the node writes
    each step once, and code outside the registry does not ask a
    structure for its name."""

    SRC = Path(repro.__file__).resolve().parent
    WRITTEN_ONCE = (
        "_buffer_op", "_holds_own_ops", "_snapshot_own", "_adopt_records",
        "_requeue_inflight", "_stage4", "_dht_put", "_dht_get",
        "_on_get_reply", "_on_put_ack", "_answer_ready",
    )

    def _trees(self, root: Path):
        for source in sorted(root.rglob("*.py")):
            yield source, ast.parse(source.read_text())

    def test_the_node_writes_each_step_once(self):
        defined = collections.Counter(
            node.name
            for _source, tree in self._trees(self.SRC / "core")
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        )
        assert {name: defined[name] for name in self.WRITTEN_ONCE} == dict.fromkeys(
            self.WRITTEN_ONCE, 1
        )

    def test_nothing_subclasses_the_node(self):
        heirs = [
            f"{source.relative_to(self.SRC)}:{node.name}"
            for source, tree in self._trees(self.SRC)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for base in node.bases
            if ast.unparse(base).split(".")[-1] == "Node"
        ]
        assert heirs == []

    def test_checker_and_rebuild_replay_the_one_model(self, monkeypatch):
        from repro.core import structures
        from repro.core.requests import INSERT, REMOVE, OpRecord
        from repro.ops.recovery import plan_rebuild

        spy = dataclasses.replace(
            structures.get_structure("queue"), model_ref=f"{__name__}:_SpyModel"
        )
        monkeypatch.setitem(structures.REGISTRY, "queue", spy)
        _SpyModel.built.clear()
        records = [OpRecord(0, 0, 0, INSERT, "a", 0.0), OpRecord(1, 1, 0, REMOVE, None, 0.0)]
        for value, rec in enumerate(records, start=1):
            rec.value, rec.completed = value, True
        records[1].result = (0, "a")
        spy.check_history(records)
        assert _SpyModel.built == ["checker"]
        plan_rebuild({rec.req_id: rec for rec in records}, "queue")
        assert set(_SpyModel.built[1:]) == {"rebuild"}
        assert len(dataclasses.fields(structures.StructureSpec)) == 14

    def test_only_the_registry_and_the_verb_sugar_compare_structure_names(self):
        # check_priority (heap INSERTs take a class) and the API/CLI sugar
        # that turns a structure into method names and demo arguments
        allowed = ("core/structures.py", "api/", "net/launcher.py", "testing/")
        offenders = [
            str(source.relative_to(self.SRC))
            for source in sorted(self.SRC.rglob("*.py"))
            if re.search(r"structure\s*[!=]=", source.read_text())
            and not str(source.relative_to(self.SRC)).startswith(allowed)
        ]
        assert offenders == []


class TestEpochPlane:
    """What a node knows about the UPDATE epoch it is in is one
    ``EpochState`` in ``Node.epoch``: built whole on entry, dropped
    whole at the end, judged against by one admission rule."""

    CORE = Path(repro.__file__).resolve().parent / "core"
    #: the per-epoch slots ``Node`` had before the plane (PR 21)
    LOOSE = (
        "updating", "passive_entry", "passive_release_at", "pold",
        "cold_pending", "update_local_done", "acked", "meta_sent",
        "depart_requested", "chain_epoch", "metas", "segment_members",
    )

    def _functions(self, name: str):
        """``(function, its nodes)`` for each function of ``core/<name>``,
        ``EpochState``'s own body left out."""
        return _functions_outside(self.CORE / name, "EpochState")

    @staticmethod
    def _is_self_attr(node, attr: str) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def test_no_per_epoch_name_is_left_on_the_node(self):
        from repro.core.protocol import Node

        assert not set(self.LOOSE) & set(Node.__slots__)
        offenders = [
            f"{source.name}:{func}: self.{name}"
            for source in sorted(self.CORE.glob("*.py"))
            for func, nodes in self._functions(source.name)
            for node in nodes
            for name in self.LOOSE
            if self._is_self_attr(node, name)
        ]
        assert offenders == []

    def test_an_epoch_is_built_in_two_places_and_dropped_in_two(self):
        built, dropped = [], []
        for source in sorted(self.CORE.glob("*.py")):
            for func, nodes in self._functions(source.name):
                for node in nodes:
                    if (
                        isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "EpochState"
                    ):
                        built.append(func)
                    if (
                        isinstance(node, ast.Assign)
                        and any(self._is_self_attr(t, "epoch") for t in node.targets)
                        and isinstance(node.value, ast.Constant)
                        and node.value.value is None
                    ):
                        dropped.append(func)
        assert sorted(built) == ["_enter_epoch_passively", "_enter_update"]
        # (and Node.__init__, where there is nothing to drop yet)
        assert sorted(dropped) == ["__init__", "_finish_update", "_membership_tick"]

    def test_the_protocol_module_only_asks_whether_an_epoch_is_open(self):
        from repro.core.membership import EpochState

        for func, nodes in self._functions("protocol.py"):
            parents = {
                id(child): parent
                for parent in nodes
                for child in ast.iter_child_nodes(parent)
            }
            for node in nodes:
                if not self._is_self_attr(node, "epoch"):
                    continue
                use = parents[id(node)]
                if func == "__init__":
                    assert isinstance(use, ast.Assign)
                    continue
                assert (
                    isinstance(use, ast.Compare)
                    and isinstance(use.ops[0], (ast.Is, ast.IsNot))
                    and ast.unparse(use.comparators[0]) == "None"
                ), f"protocol.py:{func}: {ast.unparse(use)}"
        # ... and names no field of it: none of the slots appears as an
        # attribute of anything
        attrs = {
            node.attr
            for _func, nodes in self._functions("protocol.py")
            for node in nodes
            if isinstance(node, ast.Attribute)
        }
        assert not attrs & set(EpochState.__slots__)

    def test_epoch_numbers_are_compared_by_the_admission_rule_alone(self):
        comparing = {
            func
            for func, nodes in self._functions("membership.py")
            for node in nodes
            if isinstance(node, ast.Compare)
            and any(
                self._is_self_attr(side, counter)
                for side in [node.left, *node.comparators]
                for counter in ("update_epoch", "finished_epoch")
            )
        }
        assert comparing == {"_admit"}
        assert not [
            func
            for func, nodes in self._functions("protocol.py")
            for node in nodes
            if isinstance(node, ast.Compare)
            and "_epoch" in ast.unparse(node)
        ]


class TestActionCatalog:
    """Every actor message is one row of ``repro.core.actions.CATALOG``,
    and no code path names a code to decide what a message is."""

    SRC = Path(repro.__file__).resolve().parent

    def test_codes_are_dense_and_are_the_module_names(self):
        from repro.core import actions

        assert [spec.code for spec in actions.CATALOG] == list(
            range(len(actions.CATALOG)))
        names = [spec.name for spec in actions.CATALOG]
        assert names == actions.__all__
        for spec in actions.CATALOG:
            assert getattr(actions, spec.name) == spec.code

    def test_every_handler_is_a_node_method(self):
        from repro.core.actions import CATALOG
        from repro.core.protocol import Node

        for spec in CATALOG:
            assert callable(getattr(Node, spec.handler, None)), spec
            # (node, payload), or a routed message's (node, key, extra)
            arity = 3 if spec.routed else 2
            assert len(inspect.signature(
                getattr(Node, spec.handler)).parameters) == arity, spec

    def test_the_aggregation_batch_alone_is_a_tree_batch(self):
        from repro.core.actions import A_AGG, CATALOG

        assert [spec.code for spec in CATALOG if spec.tree_batch] == [A_AGG]

    def test_no_code_path_compares_an_action_to_a_code(self):
        offenders = []
        for package in ("core", "sim", "net"):
            for source in sorted((self.SRC / package).glob("*.py")):
                for node in ast.walk(ast.parse(source.read_text())):
                    if not isinstance(node, ast.Compare):
                        continue
                    sides = [node.left, *node.comparators]
                    names = [ast.unparse(side) for side in sides]
                    if any(re.fullmatch(r"A_[A-Z_]+", name) for name in names):
                        offenders.append(f"{source.name}: {ast.unparse(node)}")
                    elif isinstance(node.ops[0], (ast.In, ast.NotIn)) and any(
                        re.search(r"\bA_[A-Z_]+\b", name) for name in names[1:]
                    ):
                        offenders.append(f"{source.name}: {ast.unparse(node)}")
        assert not offenders

    def test_node_handle_is_one_indexed_call(self):
        from repro.core.protocol import Node

        source = inspect.getsource(Node.handle)
        assert "if" not in source.split('"""')[-1]
        assert not hasattr(Node, "_handle_membership")


class TestWavePlane:
    """The batch a node has in flight is one ``Flight`` in
    ``Node.flight`` — Algorithm 1's ``v.B``: built whole at the fire,
    taken whole by the SERVE or the requeue, never changed in between."""

    CORE = TestEpochPlane.CORE
    #: the per-wave slots ``Node`` had before the plane (PR 22)
    LOOSE = (
        "inflight", "plan", "inflight_records", "inflight_counts", "sent_to",
        "wave_fired_at",
    )

    def _functions(self):
        """``(function, its nodes)`` for each function of ``core/``,
        ``Flight``'s own body left out."""
        for source in sorted(self.CORE.glob("*.py")):
            yield from _functions_outside(source, "Flight")

    def test_no_per_wave_name_is_left_on_the_node(self):
        from repro.core.protocol import Node

        assert not set(self.LOOSE) & set(Node.__slots__)
        assert "flight" in Node.__slots__ and len(Node.__slots__) == 43
        offenders = [
            f"{func}: self.{name}"
            for func, nodes in self._functions()
            for node in nodes
            for name in self.LOOSE
            if TestEpochPlane._is_self_attr(node, name)
        ]
        assert offenders == []

    def test_a_flight_is_built_at_the_fire_and_taken_in_two_places(self):
        built, dropped = [], []
        for func, nodes in self._functions():
            for node in nodes:
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "Flight":
                    built.append(func)
                if not isinstance(node, ast.Assign):
                    continue
                # `self.flight = None` and `flight, self.flight = self.flight, None`
                value = node.value
                values = value.elts if isinstance(value, ast.Tuple) else [value]
                if any(
                    TestEpochPlane._is_self_attr(part, "flight")
                    for target in node.targets
                    for part in ast.walk(target)
                ) and any(
                    isinstance(v, ast.Constant) and v.value is None for v in values
                ):
                    dropped.append(func)
        # the anchor's own wave and the batch sent up: both in _fire
        assert set(built) == {"_fire"}
        # (and Node.__init__, where there is nothing to take yet)
        assert sorted(dropped) == ["__init__", "_on_serve", "_requeue_inflight"]

    def test_a_flight_is_never_changed(self):
        """Nothing assigns to an attribute of a ``Flight`` outside its
        ``__init__`` (an object's own ``self.records`` is the record
        table or a wave buffer, not a flight)."""
        from repro.core.protocol import Flight

        stores = [
            f"{func}: {ast.unparse(node)}"
            for func, nodes in self._functions()
            for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in Flight.__slots__
            and ast.unparse(node.value) != "self"
        ]
        assert stores == []
        tree = ast.parse((self.CORE / "protocol.py").read_text())
        flight = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Flight"
        )
        assert [
            node.name for node in flight.body if isinstance(node, ast.FunctionDef)
        ] == ["__init__"]


class TestDependencies:
    """The library declares what it imports: ``pyproject.toml`` says
    ``dependencies = []``, so every import under ``src/repro`` is the
    standard library or ``repro`` itself."""

    SRC = Path(repro.__file__).resolve().parent

    def _declared(self) -> set[str]:
        pyproject = self.SRC.parents[1] / "pyproject.toml"
        specs = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        return {re.split(r"[^A-Za-z0-9_.-]", spec, maxsplit=1)[0] for spec in specs}

    def test_every_import_is_stdlib_repro_or_declared(self):
        allowed = set(sys.stdlib_module_names) | {"repro"} | self._declared()
        stray = []
        for path in sorted(self.SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                stray += [
                    f"{path.relative_to(self.SRC)}:{node.lineno}: {module}"
                    for module in modules if module.split(".")[0] not in allowed
                ]
        assert stray == []

    @pytest.mark.parametrize("module", ["repro.net.server", "repro.net.client"])
    def test_a_host_or_client_process_loads_no_numpy(self, module):
        probe = f"import sys, {module}; print('numpy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(self.SRC.parent)}, timeout=60, check=True,
        )
        assert done.stdout.strip() == "False"
