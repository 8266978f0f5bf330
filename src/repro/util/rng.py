"""Deterministic, componentised random-number streams.

Every stochastic component of the simulation (workload generation, message
delays, routing tie-breaks, ...) draws from its own named stream of one root
seed, so experiments are reproducible and adding randomness to one
component never perturbs another.
"""

from __future__ import annotations

import random

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent RNGs derived from a single root seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._py: dict[str, random.Random] = {}

    def py(self, name: str) -> random.Random:
        """Python ``random.Random`` stream for component ``name``."""
        rng = self._py.get(name)
        if rng is None:
            rng = random.Random(f"{self.seed}:{name}")
            self._py[name] = rng
        return rng
