"""Real asyncio TCP runtime for Skueue (DESIGN.md, "The net runtime").

The same unmodified :class:`~repro.core.protocol.Node` actors that
run on the in-process simulators run here across OS processes:

* :mod:`repro.net.transport` — self-describing frames: one binary
  codec that packs protocol payloads (batches, intervals, records) as
  they are;
* :mod:`repro.net.runtime`   — :class:`NetRuntime`, the asyncio
  implementation of the :class:`repro.sim.process.Runtime` contract;
* :mod:`repro.net.records`   — the record plane: one merge for a
  request's facts, one record class with hooks, one socket-free store;
* :mod:`repro.net.server`    — :class:`NodeHost`, one OS process hosting
  a shard of virtual nodes;
* :mod:`repro.net.client`    — :class:`SkueueClient`, submits operations
  and awaits completions;
* :mod:`repro.net.launcher`  — spawn a local multi-process deployment
  (also the ``skueue-node`` console entry point).

Exports are lazy so ``python -m repro.net.launcher`` (what the launcher
spawns per host) does not import the package twice.
"""

__all__ = ["NetDeployment", "SkueueClient", "launch_local"]


def __getattr__(name: str):
    if name == "SkueueClient":
        from repro.net.client import SkueueClient

        return SkueueClient
    if name in ("NetDeployment", "launch_local"):
        from repro.net import launcher

        return getattr(launcher, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
