"""Operations plane for TCP deployments: failure detection, crash
recovery planning, and the health surface.

This package holds the *pure* half of crash-stop fault tolerance — no
sockets, no event loop — so every policy decision is unit-testable with
an injected clock:

* :mod:`repro.ops.detector` — the failure detector state machine: a
  refused dial suspects at once, heartbeat silence is the ceiling
  (thresholds, flapping tolerance, eviction decisions).
* :mod:`repro.ops.recovery` — merging record dumps and planning the
  deterministic post-crash rebuild (replay completion, store preload,
  anchor restoration, repair of records whose facts died with a host).
* :mod:`repro.ops.health` — the `/health` payload builder plus the
  minimal HTTP responder each host's data port hands a ``GET`` to.
* :mod:`repro.ops.cli` — the ``skueue-ops`` dashboard/log-tail CLI
  (imported lazily by its entry point; it pulls in ``repro.net``).

The impure half — heartbeat tasks, the peer links' dial outcomes,
SUSPECT/RECOVER_DUMP/REBUILD frames — lives in :mod:`repro.net.control`
and :mod:`repro.net.server`, which import this package
(never the other way around).  :mod:`repro.ops.recovery` merges records
with :func:`repro.net.records.learn`; that module is as socket-free as
this package, so the pure half stays pure.
"""

from repro.ops.detector import FailureDetector
from repro.ops.health import build_health
from repro.ops.recovery import RebuildPlan, merge_records, plan_rebuild

__all__ = [
    "FailureDetector",
    "RebuildPlan",
    "build_health",
    "merge_records",
    "plan_rebuild",
]
