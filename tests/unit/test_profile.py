"""EngineProfile: the one typed tuning surface for every engine."""

import dataclasses

import pytest

from repro import EngineProfile


def test_defaults():
    p = EngineProfile()
    assert p.safety_tick == 64.0
    assert p.timeout_lag == 0.25


def test_validation_and_immutability():
    with pytest.raises(ValueError):
        EngineProfile(safety_tick=-1)
    with pytest.raises(ValueError):
        EngineProfile(timeout_lag=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        EngineProfile().safety_tick = 1  # type: ignore[misc]


class TestTcpPacingHasOneSource:
    """``launch_local(profile=None)`` and ``profile=EngineProfile()``
    deploy the same hosts: the TCP runtime's measured defaults live in
    one place, and only a field the caller set overrides them."""

    def test_default_profile_overrides_nothing(self):
        from repro.net.launcher import host_tuning
        from repro.net.runtime import TIMEOUT_LAG, NetRuntime
        from repro.net.server import HostConfig

        assert host_tuning(None, 0.01) == host_tuning(EngineProfile(), 0.01) == {}
        config = HostConfig(host_index=0, n_hosts=1, n_processes=1)
        runtime = NetRuntime(send_remote=lambda dest, action, payload: None)
        assert config.timeout_lag == runtime.timeout_lag == TIMEOUT_LAG
        assert config.sweep_seconds == runtime.sweep_seconds

    def test_set_fields_scale_from_round_units(self):
        from repro.net.launcher import host_tuning

        assert host_tuning(EngineProfile(safety_tick=0), 0.01) == {
            "sweep_seconds": 0.0,
        }
        assert host_tuning(EngineProfile(timeout_lag=0.5), 0.02) == {
            "timeout_lag": 0.01,
        }
