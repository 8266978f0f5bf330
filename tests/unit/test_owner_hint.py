"""The owner hint: a TCP host sends each PUT/GET's first hop straight to
the vnode its owner table names (``ClusterContext.key_owner``).

Only range-routed actions take the hint, a hint naming the sender runs
the final walk in place, and the host's table is the LDB snapshot of its
cluster map without the pids of draining hosts.  That a *wrong* hint
costs hops and never an op is swept in ``tests/testing/test_stale_hints.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.actions import A_FIND_MIN, A_JOIN_RT, A_RT_GET, A_RT_PUT
from repro.core.cluster import SkueueCluster
from repro.core.protocol import Node
from repro.core.requests import INSERT, REMOVE
from repro.net.membership import ClusterMap
from repro.net.server import HostConfig, NodeHost
from repro.overlay.ldb import MIDDLE, LdbTopology, pid_of, vid_of


def recorded_sends(monkeypatch) -> list[tuple[int, int, int, tuple]]:
    """Every ``Node.send`` from here on, as ``(src, dest, action, payload)``
    — recorded instead of sent."""
    sent = []
    monkeypatch.setattr(Node, "send", lambda node, dest, action, payload:
                        sent.append((node.vid, dest, action, payload)))
    return sent


class TestRouteStart:
    @pytest.mark.parametrize("action", [A_RT_PUT, A_RT_GET])
    def test_a_range_route_hops_straight_to_the_hinted_owner(
            self, monkeypatch, action):
        cluster = SkueueCluster(4, seed=3)
        node = cluster.runtime.actors[vid_of(0, MIDDLE)]
        hinted = vid_of(2, MIDDLE)
        cluster.ctx.key_owner = lambda key: hinted
        sent = recorded_sends(monkeypatch)
        node._route_start(action, 0.25, ("extra",))
        assert sent == [(node.vid, hinted, action, (0.25, 0, 0, 0.0, ("extra",)))]

    @pytest.mark.parametrize("action", [A_JOIN_RT, A_FIND_MIN])
    def test_a_cycle_route_ignores_the_hint(self, monkeypatch, action):
        """A JOIN hinted by a map that already names the joiner would be
        sent to the joiner itself, which waits for exactly that grant."""
        cluster = SkueueCluster(4, seed=3)
        node = cluster.runtime.actors[vid_of(0, MIDDLE)]
        asked = []
        cluster.ctx.key_owner = lambda key: asked.append(key) or vid_of(2, MIDDLE)
        sent = recorded_sends(monkeypatch)
        node._route_start(action, 0.25, ("extra",))
        assert asked == []
        assert len(sent) == 1
        _src, _dest, sent_action, (key, _bits, steps, _ideal, extra) = sent[0]
        # still in Lemma 3's De Bruijn phase, not the final walk
        assert (sent_action, key, extra) == (action, 0.25, ("extra",))
        assert steps > 0

    def test_a_hint_naming_the_sender_delivers_locally(self, monkeypatch):
        cluster = SkueueCluster(4, seed=3)
        node = cluster.runtime.actors[vid_of(0, MIDDLE)]
        cluster.ctx.key_owner = lambda key: node.vid
        req_id = cluster.submit(0, INSERT, "job")
        sent = recorded_sends(monkeypatch)
        # a node owns [label, succ): its own label is its key
        node._route_start(A_RT_PUT, node.label, ("job", 0.0, req_id))
        assert sent == []
        assert cluster.records[req_id].completed
        assert node.occupancy == 1

    def test_the_joiner_named_by_the_hint_still_joins(self):
        """The hint a host builds from a map that already names a joining
        pid: its PUT/GETs wait at (or bounce off) the pending joiner, and
        its JOIN still walks to the node that grants it."""
        cluster = SkueueCluster(4, seed=5)
        table = LdbTopology([0, 1, 2, 3, 4], salt=cluster.topology.salt)
        cluster.ctx.key_owner = table.owner_of
        for i in range(12):
            cluster.submit(i % 4, INSERT, f"job-{i}")
        cluster.join(new_pid=4)
        for i in range(12):
            cluster.submit(i % 4, REMOVE)
        cluster.run_until_settled(2000)
        assert all(rec.completed for rec in cluster.records)
        assert cluster.can_submit(4)
        assert sorted(rec.result[1] for rec in cluster.records
                      if rec.kind == REMOVE) == sorted(f"job-{i}" for i in range(12))


class TestHostOwnerTable:
    def test_the_table_is_the_map_snapshot_without_leaving_hosts(self):
        keys = [(i + 0.5) / 211 for i in range(211)]

        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=3, n_processes=9))
            genesis = ClusterMap.genesis({i: ("127.0.0.1", 1) for i in range(3)}, 9)
            host.wire_genesis(genesis)
            at_genesis = [host.ctx.key_owner(key) for key in keys]
            draining = genesis.copy()
            draining.start_drain(2)
            host.control.adopt(draining, 0.0)
            while_draining = [host.ctx.key_owner(key) for key in keys]
            await host._async_stop()
            return host.config.salt, genesis, at_genesis, while_draining

        salt, genesis, at_genesis, while_draining = asyncio.run(scenario())
        full = LdbTopology(list(range(9)), salt=salt)
        assert at_genesis == [full.owner_of(key) for key in keys]
        drained = set(genesis.pids_of(2))
        assert len(drained) == 3
        kept = LdbTopology(sorted(set(range(9)) - drained), salt=salt)
        assert while_draining == [kept.owner_of(key) for key in keys]
        assert not {pid_of(vid) for vid in while_draining} & drained
