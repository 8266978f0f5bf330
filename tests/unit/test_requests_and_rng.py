"""Unit tests: request records, sentinels, req_id packing, RNG streams."""

import pytest

from repro.core import actions
from repro.core.requests import (
    BOTTOM,
    INSERT,
    MAX_REQ_SEQ,
    OpRecord,
    REMOVE,
    pack_req_id,
    unpack_req_id,
)
from repro.util.rng import RngStreams


class TestBottom:
    def test_singleton(self):
        from repro.core.requests import _Bottom

        assert _Bottom() is BOTTOM

    def test_falsy(self):
        assert not BOTTOM

    def test_repr(self):
        assert repr(BOTTOM) == "BOTTOM"


class TestOpRecord:
    def test_element_tagging(self):
        rec = OpRecord(7, 1, 0, INSERT, "payload", 3.0)
        assert rec.element == (7, "payload")

    def test_defaults(self):
        rec = OpRecord(0, 0, 0, REMOVE, None, 0.0)
        assert rec.value is None
        assert not rec.completed
        assert not rec.local_match


class TestReqIdPacking:
    def test_round_trip(self):
        for nonce in (0, 1, 7, 12345):
            for seq in (0, 1, 999, MAX_REQ_SEQ):
                for n_hosts in (1, 2, 5):
                    for host in range(n_hosts):
                        req = pack_req_id(nonce, seq, host, n_hosts)
                        assert unpack_req_id(req, n_hosts) == (nonce, seq, host)

    def test_origin_residue_preserved(self):
        # the completion-forwarding path depends on req_id % n_hosts
        for nonce in (0, 3, 999):
            for seq in (0, 17):
                assert pack_req_id(nonce, seq, 2, 3) % 3 == 2

    def test_legacy_nonce_zero_matches_old_scheme(self):
        # pre-handshake clients computed req_id = seq * n_hosts + host
        assert pack_req_id(0, 5, 1, 2) == 5 * 2 + 1

    def test_distinct_nonces_never_collide(self):
        n_hosts = 2
        ids = {
            pack_req_id(nonce, seq, host, n_hosts)
            for nonce in (1, 2, 3)
            for seq in range(50)
            for host in range(n_hosts)
        }
        assert len(ids) == 3 * 50 * n_hosts

    def test_field_validation(self):
        with pytest.raises(ValueError):
            pack_req_id(-1, 0, 0, 2)
        with pytest.raises(ValueError):
            pack_req_id(0, MAX_REQ_SEQ + 1, 0, 2)
        with pytest.raises(ValueError):
            pack_req_id(0, 0, 2, 2)
        with pytest.raises(ValueError):
            unpack_req_id(-1, 2)


class TestActionCodes:
    def test_all_unique(self):
        codes = [getattr(actions, name) for name in actions.__all__]
        assert len(set(codes)) == len(codes)

    def test_all_exported(self):
        for name in actions.__all__:
            assert name.startswith("A_")


class TestRngStreams:
    def test_deterministic(self):
        a = RngStreams(5).py("x").random()
        b = RngStreams(5).py("x").random()
        assert a == b

    def test_streams_independent(self):
        streams = RngStreams(5)
        a = streams.py("one")
        b = streams.py("two")
        assert a.random() != b.random()

    def test_same_name_same_object(self):
        streams = RngStreams(5)
        assert streams.py("x") is streams.py("x")
