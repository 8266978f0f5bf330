"""Unit tests for the Linearized De Bruijn topology (Definition 2)."""

import pytest

from repro.overlay.ldb import (
    LEFT,
    MIDDLE,
    RIGHT,
    LdbTopology,
    kind_of,
    pid_of,
    vid_of,
    virtual_label,
)


class TestVirtualNodeIds:
    def test_roundtrip(self):
        for pid in (0, 7, 12345):
            for kind in (LEFT, MIDDLE, RIGHT):
                vid = vid_of(pid, kind)
                assert pid_of(vid) == pid
                assert kind_of(vid) == kind

    def test_labels(self):
        m = 0.6
        assert virtual_label(m, MIDDLE) == 0.6
        assert virtual_label(m, LEFT) == 0.3
        assert virtual_label(m, RIGHT) == 0.8

    def test_left_right_ranges(self):
        # left labels < 0.5 <= right labels, for every possible middle
        for m in (0.0, 0.1, 0.49, 0.5, 0.99):
            assert virtual_label(m, LEFT) < 0.5
            assert virtual_label(m, RIGHT) >= 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            virtual_label(0.5, 3)


class TestTopology:
    def test_sizes(self):
        topology = LdbTopology(list(range(10)))
        assert len(topology) == 30
        assert len(set(topology.vids)) == 30

    def test_cycle_sorted(self):
        topology = LdbTopology(list(range(50)), salt="s")
        labels = [topology.label(v) for v in topology.vids]
        assert labels == sorted(labels)

    def test_pred_succ_inverse(self):
        topology = LdbTopology(list(range(20)), salt="s")
        for vid in topology.vids:
            assert topology.pred(topology.succ(vid)) == vid
            assert topology.succ(topology.pred(vid)) == vid

    def test_min_is_a_left_node(self):
        # the anchor is always a left virtual node (Section III)
        for salt in ("a", "b", "c"):
            topology = LdbTopology(list(range(30)), salt=salt)
            assert kind_of(topology.min_vid()) == LEFT

    def test_owner_of(self):
        topology = LdbTopology(list(range(25)), salt="s")
        for point in (0.0, 0.123, 0.5, 0.9999):
            owner = topology.owner_of(point)
            label = topology.label(owner)
            succ_label = topology.label(topology.succ(owner))
            if label < succ_label:
                assert label <= point < succ_label
            else:  # wrap at the max node
                assert point >= label or point < succ_label

    def test_owner_rejects_out_of_range(self):
        topology = LdbTopology([0, 1])
        with pytest.raises(ValueError):
            topology.owner_of(1.0)

    def test_needs_processes(self):
        with pytest.raises(ValueError):
            LdbTopology([])
