"""Request records and result sentinels.

Every queue/stack operation issued by a process becomes one
:class:`OpRecord`.  The record stays at the issuing node while the
batched protocol decides its position; the fields ``value`` (the rank the
anchor's virtual counter assigns, Section V) and ``result`` are filled in
as the protocol progresses.  The full list of records *is* the execution
history handed to the sequential-consistency checker.

Elements are stored in the DHT as ``(req_id, item)`` pairs, realising the
paper's w.l.o.g. assumption that every element is enqueued at most once
("make the calling process and the current count of requests performed a
part of e").

Request-id space
----------------
On the simulators a req_id is simply the record's index in the history
list.  On a sharded TCP deployment req_ids are assigned client-side and
must (a) encode the submitting host so any DHT node can route a
completion back to the origin (``req_id % n_hosts``, see
:class:`repro.net.runtime.RecordTable`) and (b) never collide across
*concurrent* clients.  :func:`pack_req_id` therefore packs three fields
into one int::

    req_id = ((nonce << REQ_SEQ_BITS) | seq) * n_hosts + host

where ``nonce`` is a per-connection value the host assigns during the
``hello``/``welcome`` handshake (unique per host), ``seq`` is the
client's per-host submission counter, and ``host`` is the owning host
index.  ``req_id % n_hosts == host`` holds by construction, so record
routing is oblivious to how many clients exist.
"""

from __future__ import annotations

__all__ = [
    "BOTTOM",
    "INSERT",
    "REMOVE",
    "REQ_SEQ_BITS",
    "MAX_REQ_SEQ",
    "OpRecord",
    "pack_req_id",
    "unpack_req_id",
    "user_result",
]

#: Operation kinds, shared by queue (enqueue/dequeue) and stack (push/pop).
INSERT, REMOVE = 0, 1

#: Bits reserved for the per-host submission counter inside a packed
#: req_id; 2**32 operations per client per host before exhaustion.
REQ_SEQ_BITS = 32
MAX_REQ_SEQ = (1 << REQ_SEQ_BITS) - 1


def pack_req_id(nonce: int, seq: int, host: int, n_hosts: int) -> int:
    """Pack ``(nonce, seq, host)`` into one collision-free request id.

    Preserves the origin-host residue (``result % n_hosts == host``) that
    the completion-forwarding path relies on, while giving every client
    connection its own id space via the host-assigned ``nonce``.
    """
    if nonce < 0:
        raise ValueError(f"nonce must be non-negative, got {nonce}")
    if not 0 <= seq <= MAX_REQ_SEQ:
        raise ValueError(f"seq {seq} outside [0, {MAX_REQ_SEQ}]")
    if not 0 <= host < n_hosts:
        raise ValueError(f"host {host} outside [0, {n_hosts})")
    return (((nonce << REQ_SEQ_BITS) | seq) * n_hosts) + host


def unpack_req_id(req_id: int, n_hosts: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack_req_id`; returns ``(nonce, seq, host)``."""
    if req_id < 0:
        raise ValueError(f"req_id must be non-negative, got {req_id}")
    host = req_id % n_hosts
    rest = req_id // n_hosts
    return rest >> REQ_SEQ_BITS, rest & MAX_REQ_SEQ, host


class _Bottom:
    """The ⊥ returned by a DEQUEUE()/POP() on an empty structure."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()


def user_result(kind: int, result):
    """What a caller sees of a completed operation: ``True`` for an
    insert; ``BOTTOM`` or the bare item for a removal (the ``(req_id,
    item)`` element tag unwrapped)."""
    if kind == INSERT:
        return True
    if result is BOTTOM:
        return BOTTOM
    return result[1]


class OpRecord:
    """One queue/stack operation and everything the run learned about it."""

    __slots__ = (
        "req_id",
        "pid",
        "idx",
        "kind",
        "item",
        "gen",
        "priority",
        "value",
        "result",
        "completed",
        "local_match",
    )

    def __init__(
        self,
        req_id: int,
        pid: int,
        idx: int,
        kind: int,
        item: object,
        gen: float,
        priority: int = 0,
    ) -> None:
        self.req_id = req_id
        self.pid = pid
        self.idx = idx  # per-process operation index (OP_{v,i} in the paper)
        self.kind = kind
        self.item = item
        self.gen = gen  # generation time (rounds / virtual time)
        self.priority = priority  # Skeap class of an INSERT (0 elsewhere)
        self.value = None  # anchor's virtual-counter rank (Section V)
        self.result = None  # dequeued element, BOTTOM, or None for inserts
        self.completed = False
        self.local_match = False  # stack: annihilated locally (Section VI)

    @property
    def element(self) -> tuple:
        """The uniquely-tagged element this INSERT stores in the DHT."""
        return (self.req_id, self.item)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        k = "INS" if self.kind == INSERT else "REM"
        return (
            f"OpRecord({self.req_id}, p{self.pid}#{self.idx}, {k}, "
            f"value={self.value}, result={self.result!r})"
        )
