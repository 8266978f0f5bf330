"""Unit tests for De Bruijn routing (Lemma 3)."""


from repro.overlay.ldb import LdbTopology
from repro.overlay.routing import (
    initial_route_state,
    owns,
    route_on_topology,
    route_step,
    route_steps_for,
)
from repro.util.rng import RngStreams


class TestOwns:
    def test_plain_range(self):
        assert owns(0.2, 0.4, 0.2)
        assert owns(0.2, 0.4, 0.39)
        assert not owns(0.2, 0.4, 0.4)
        assert not owns(0.2, 0.4, 0.1)

    def test_wrap_range(self):
        # the max node owns [max, 1) + [0, min)
        assert owns(0.9, 0.1, 0.95)
        assert owns(0.9, 0.1, 0.05)
        assert not owns(0.9, 0.1, 0.5)


class TestRouteState:
    def test_steps_for(self):
        assert route_steps_for(2) == 3
        assert route_steps_for(1024) == 12

    def test_bits_packing(self):
        bits, steps, origin = initial_route_state(0.5, 4, origin=0.3)
        assert steps == 4 and origin == 0.3
        assert bits == 0b1000


class TestRouteOnTopology:
    def test_always_reaches_owner(self):
        topology = LdbTopology(list(range(100)), salt="route-t")
        rng = RngStreams(3).py("t")
        for _ in range(300):
            src = rng.choice(topology.vids)
            target = rng.random()
            dest, hops, path = route_on_topology(topology, src, target)
            assert dest == topology.owner_of(target)
            assert path[0] == src and path[-1] == dest

    def test_wrap_targets(self):
        # targets adjacent to the 1.0/0.0 wrap exercise the discontinuity
        topology = LdbTopology(list(range(200)), salt="route-w")
        for target in (0.0, 1e-9, 0.999999, 0.5, 0.4999999):
            dest, hops, _ = route_on_topology(topology, topology.vids[0], target)
            assert dest == topology.owner_of(target)

    def test_hop_bound_logarithmic(self):
        rng = RngStreams(4).py("t2")
        means = []
        for n in (64, 1024):
            topology = LdbTopology(list(range(n)), salt="route-h")
            hops = []
            for _ in range(150):
                src = rng.choice(topology.vids)
                dest, hop_count, _ = route_on_topology(topology, src, rng.random())
                hops.append(hop_count)
            means.append(sum(hops) / len(hops))
        # x16 nodes, < x3 hops
        assert means[1] < means[0] * 3
        # and over x16 nodes at larger sizes, < x2.5 mean hops; the p99
        # stays near the mean, and the max — a w.h.p. tail that may spike
        # on long linear walks between middle nodes — gets a loose bound
        rng = RngStreams(7).py("routing-bench")
        rows = []
        for n in (250, 1000, 4000):
            topology = LdbTopology(list(range(n)), salt="route-bench")
            hops = []
            for _ in range(400):
                target = rng.random()
                dest, hop_count, _ = route_on_topology(
                    topology, rng.choice(topology.vids), target)
                assert dest == topology.owner_of(target)
                hops.append(hop_count)
            hops.sort()
            rows.append((sum(hops) / len(hops), hops[int(0.99 * len(hops))], hops[-1]))
        assert rows[-1][0] < rows[0][0] * 2.5, rows
        for mean, p99, most in rows:
            assert p99 < mean * 4 + 20, rows
            assert most < mean * 10 + 60, rows

    def test_single_process(self):
        topology = LdbTopology([0], salt="solo")
        dest, hops, _ = route_on_topology(topology, topology.vids[0], 0.123)
        assert dest == topology.owner_of(0.123)

    def test_route_to_own_range(self):
        topology = LdbTopology(list(range(50)), salt="own")
        vid = topology.vids[7]
        label = topology.label(vid)
        dest, _, _ = route_on_topology(topology, vid, label)
        assert dest == vid
