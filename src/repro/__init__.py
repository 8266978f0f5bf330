"""Skueue — a scalable, sequentially consistent distributed queue.

Full reproduction of Feldmann, Scheideler & Setzer, *"Skueue: A Scalable
and Sequentially Consistent Distributed Queue"*, IPDPS 2018 (full
version: arXiv:1802.07504): the linearized De Bruijn overlay, the
consistent-hashing DHT, the batched four-stage queue protocol with
JOIN/LEAVE, the distributed stack variant, a Definition-1 sequential
consistency checker, and the paper's evaluation sweeps.

Quickstart (the unified handle API — same script on every backend)::

    import repro

    with repro.connect("sync", n_processes=16, seed=1) as queue:
        queue.enqueue("job-1", pid=3)
        job = queue.dequeue(pid=11)
        assert job.result() == "job-1"

Swap ``"sync"`` for ``"async"`` (adversarial delays) or ``"tcp"`` (real
multi-process deployment) and nothing else changes; see ``repro.api``.
For round-precise simulation control, the session's backend is itself a
:class:`SkueueCluster` (``session.cluster``), which serves every
structure (``SkueueCluster(n, structure="stack")``) and can also be
built directly.
"""

from repro.api import Op, connect
from repro.core.cluster import SkueueCluster
from repro.core.requests import BOTTOM

__version__ = "1.3.0"

__all__ = [
    "BOTTOM",
    "Op",
    "SkueueCluster",
    "__version__",
    "connect",
]
