"""Genesis placement: each host owns one arc of the pids' label order.

A tree parent's pid has a smaller middle label than its child's, so with
arcs the owner's host index never rises going up the aggregation tree,
and a path to the anchor changes host at most ``hosts - 1`` times.  The
checks walk the static snapshot every host builds from the same salt.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.membership import ClusterMap
from repro.net.server import HostConfig, NodeHost
from repro.overlay.ldb import LdbTopology, pid_of
from repro.overlay.tree import cross_host_tree, parent_of
from repro.util.hashing import label_of

SHAPES = pytest.mark.parametrize(
    "n_pids,n_hosts", [(8, 3), (6, 3), (24, 3), (60, 5)])
DRAWS = pytest.mark.parametrize("draw", range(16))


def deployment(n_pids: int, n_hosts: int, draw: int,
               id_slots: int = 0) -> tuple[ClusterMap, str]:
    """The genesis map of a deployment launched with seed ``draw``."""
    salt = HostConfig(host_index=0, n_hosts=n_hosts, n_processes=n_pids,
                      seed=draw).salt
    hosts = {index: ("127.0.0.1", 1) for index in range(n_hosts)}
    return ClusterMap.genesis(hosts, n_pids, id_slots, salt), salt


def host_changes(topology: LdbTopology, host_of) -> int:
    """The most host changes on one path to the anchor, walked one
    parent pointer at a time."""
    worst = 0
    for vid in topology.vids:
        changes = 0
        parent = parent_of(topology, vid)
        while parent is not None:
            changes += host_of(pid_of(vid)) != host_of(pid_of(parent))
            vid, parent = parent, parent_of(topology, parent)
        worst = max(worst, changes)
    return worst


@SHAPES
@DRAWS
def test_every_host_gets_the_floor_or_the_ceiling_of_its_share(
        n_pids, n_hosts, draw):
    cmap, _salt = deployment(n_pids, n_hosts, draw)
    sizes = [len(cmap.pids_of(index)) for index in range(n_hosts)]
    assert sum(sizes) == n_pids
    assert set(sizes) <= {n_pids // n_hosts, -(-n_pids // n_hosts)}


@SHAPES
@DRAWS
def test_each_host_owns_one_contiguous_arc_of_the_label_order(
        n_pids, n_hosts, draw):
    cmap, salt = deployment(n_pids, n_hosts, draw)
    by_label = sorted(range(n_pids), key=lambda pid: label_of(pid, salt=salt))
    owners = [cmap.owner_of(pid) for pid in by_label]
    runs = [owners[0]] + [b for a, b in zip(owners, owners[1:]) if a != b]
    assert sorted(runs) == list(range(n_hosts))  # one run per host


@SHAPES
@DRAWS
def test_a_root_path_changes_host_at_most_hosts_minus_one_times(
        n_pids, n_hosts, draw):
    cmap, salt = deployment(n_pids, n_hosts, draw)
    topology = LdbTopology(list(range(n_pids)), salt=salt)
    depth = host_changes(topology, cmap.owner_of)
    assert depth <= n_hosts - 1
    edges = sum(cmap.owner_of(pid_of(vid))
                != cmap.owner_of(pid_of(parent_of(topology, vid)))
                for vid in topology.vids if vid != topology.min_vid())
    assert cross_host_tree(topology, cmap.owner_of) == (edges, depth)


def test_round_robin_changed_host_six_times_on_draw_zero():
    """What the bound replaces: ``pid % hosts`` at 8 pids on 3 hosts."""
    _cmap, salt = deployment(8, 3, 0)
    topology = LdbTopology(list(range(8)), salt=salt)
    assert host_changes(topology, lambda pid: pid % 3) == 6


def test_a_genesis_host_spawns_the_pids_its_map_names():
    async def scenario(index: int):
        host = NodeHost(HostConfig(host_index=index, n_hosts=3, n_processes=8))
        cmap, _salt = deployment(8, 3, host.config.seed)
        host.wire_genesis(cmap)
        spawned = sorted(host.runtime.actors)
        await host._async_stop()
        return cmap, spawned

    owned = []
    for index in range(3):
        cmap, spawned = asyncio.run(scenario(index))
        pids = cmap.pids_of(index)
        assert sorted({pid_of(vid) for vid in spawned}) == pids
        assert len(spawned) == 3 * len(pids)
        owned += pids
    assert sorted(owned) == list(range(8))


def test_the_placement_gauges_follow_the_map_through_a_join():
    """A joiner's fresh pids land wherever their labels fall, so the
    crossings a join adds show on ``/metrics``."""

    def gauges(host) -> tuple[float, float]:
        series = host.telemetry.snapshot()
        return (series["skueue_cross_host_tree_edges"][""],
                series["skueue_cross_host_depth"][""])

    async def scenario():
        host = NodeHost(HostConfig(host_index=0, n_hosts=3, n_processes=8,
                                   id_slots=8))
        cmap, salt = deployment(8, 3, host.config.seed, id_slots=8)
        host.wire_genesis(cmap)
        at_genesis = gauges(host)
        joined = cmap.copy()
        index, pids = joined.reserve_join(4)
        joined.commit_join(index, ("127.0.0.1", 1), pids)
        host.control.adopt(joined, 0.0)
        after_join = gauges(host)
        await host._async_stop()
        return cmap, joined, salt, at_genesis, after_join

    cmap, joined, salt, at_genesis, after_join = asyncio.run(scenario())
    expect = cross_host_tree(LdbTopology(list(range(8)), salt=salt),
                             cmap.owner_of)
    assert at_genesis == expect and expect[1] <= 2
    expect = cross_host_tree(LdbTopology(joined.live_pids(), salt=salt),
                             joined.owner_of)
    assert after_join == expect
    assert after_join[0] > at_genesis[0]
