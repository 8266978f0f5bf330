"""Shared utilities: hashing to the unit interval, RNG streams."""

from repro.util.hashing import (
    label_of,
    position_key,
    unit_hash,
)
from repro.util.rng import RngStreams

__all__ = [
    "RngStreams",
    "label_of",
    "position_key",
    "unit_hash",
]
