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
import re
from pathlib import Path

import pytest

import repro
from repro import EngineProfile, SkueueCluster
from repro.experiments.harness import run_experiment
from repro.net.client import SkueueClient
from repro.net.launcher import launch_local, main
from repro.net.server import PER_HOST_FIELDS, HostConfig

HOST_CONFIG_FIELDS = (
    "host_index", "n_hosts", "n_processes", "seed", "bind_host", "port",
    "round_seconds", "timeout_lag", "sweep_seconds", "epoch", "structure",
    "salt", "id_slots", "n_priorities", "owned", "ops_port",
    "heartbeat_seconds", "miss_threshold", "confirm_seconds", "replication",
    "trace_sample", "trace_slow_ms",
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
            "ready_timeout", "id_slots", "n_priorities", "profile",
            "trace_sample", "trace_slow_ms",
        )

    def test_skueue_client(self):
        assert _parameters(SkueueClient.__init__) == (
            "host_map", "trace_sample",
        )

    def test_skueue_cluster(self):
        assert _parameters(SkueueCluster.__init__) == (
            "n_processes", "seed", "runner", "delay_policy",
            "shuffle_delivery", "store_samples", "salt", "n_priorities",
            "profile", "trace_sample",
        )

    def test_run_experiment(self):
        assert _parameters(run_experiment) == (
            "workload", "n_processes", "rounds", "structure", "seed",
            "max_drain_rounds", "verify", "n_priorities", "profile",
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

    def test_engine_profile(self):
        names = tuple(f.name for f in dataclasses.fields(EngineProfile))
        assert names == ("safety_tick", "timeout_lag")
        assert not hasattr(EngineProfile, "merge")

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
        assert names == {"SKUEUE_PROFILE", "SKUEUE_FULL"}


class TestHostConfigStatedOnce:
    """``to_json`` and the ``join_ok`` config derive from the dataclass:
    a field added to it cannot silently miss either of them."""

    def _off_default(self) -> HostConfig:
        return HostConfig(
            host_index=2, n_hosts=3, n_processes=9, seed=7,
            bind_host="0.0.0.0", port=4001, round_seconds=0.02,
            timeout_lag=0.008, sweep_seconds=0.0, epoch=12.5,
            structure="heap", salt="pepper", id_slots=16, n_priorities=6,
            owned=[9, 10], ops_port=4101, heartbeat_seconds=0.5,
            miss_threshold=6, confirm_seconds=2.5, replication=3,
            trace_sample=0.25, trace_slow_ms=40.0,
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
        assert joiner.replication == 3 and joiner.trace_sample == 0.25
        assert PER_HOST_FIELDS == (
            "host_index", "bind_host", "port", "owned", "ops_port",
        )


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
