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
