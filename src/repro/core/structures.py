"""The structure registry: the one place that knows queue, stack and heap.

A structure is a :class:`StructureSpec`: what the one protocol node
(:class:`repro.core.protocol.Node`) asks where the paper's structures
differ — wave buffer, anchor state, decomposer, DHT store, stage-4
placement and key function, whether PUT/GET carry tickets and whether
they hold the node's next wave back (all from
:mod:`repro.core.discipline`, :mod:`repro.core.anchor`,
:mod:`repro.core.decompose`, :mod:`repro.dht.storage`) — plus what the
layers above need by name: the metric and method vocabulary and (as lazily
resolved dotted references, to keep this module import-cycle-free) the
sequential model that both the Definition-1 checker and the crash
rebuild replay and the session class of the public API.  The node, the
simulator cluster, the TCP
:class:`~repro.net.server.NodeHost`, the rebuild preload and the launcher
CLI look the structure up here and branch on nothing else; adding one is
a module holding its discipline plus one :func:`register` call (recipe
in DESIGN.md, "Structures").

Validation errors everywhere quote :func:`structure_names`, so a typo'd
``structure=`` argument tells the user exactly what is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable

from repro.core.anchor import HeapAnchorState, QueueAnchorState, StackAnchorState
from repro.core.decompose import HeapDecomposer, QueueDecomposer, StackDecomposer
from repro.core.discipline import (
    HeapBuffer,
    QueueBuffer,
    StackBuffer,
    place_heap,
    place_queue,
    place_stack,
    stack_position_key,
)
from repro.core.requests import INSERT
from repro.dht.storage import HeapStore, QueueStore, StackStore
from repro.util.hashing import heap_position_key, position_key
from repro.verify import seqcons

__all__ = [
    "REGISTRY",
    "StructureSpec",
    "check_priority",
    "get_structure",
    "register",
    "structure_names",
]


def check_priority(
    structure: str, kind: int, priority: int, n_priorities: int | None = None
) -> None:
    """Shared submission-side validation of an operation's priority.

    One rule for both backends (simulator cluster, TCP client), so they
    cannot drift: only heap INSERTs carry a priority,
    and it must fall in ``[0, n_priorities)`` when the class count is
    known (``None``: not learned yet, bound checked downstream).
    """
    if structure != "heap":
        if priority:
            raise ValueError(f"structure {structure!r} takes no priorities")
        return
    if kind != INSERT:
        if priority:
            raise ValueError("only heap INSERTs take a priority")
        return
    if priority < 0 or (n_priorities is not None and priority >= n_priorities):
        raise ValueError(f"priority {priority} outside [0, {n_priorities})")


def _resolve(ref: str):
    """Import ``"pkg.module:attr"`` lazily (avoids core -> api cycles)."""
    module_name, _, attr = ref.partition(":")
    return getattr(import_module(module_name), attr)


@dataclass(frozen=True, slots=True)
class StructureSpec:
    """Everything the stack of layers needs to serve one structure."""

    name: str
    insert_name: str  # metric names, also the session method vocabulary
    remove_name: str
    empty_name: str
    #: "module:Class" of the sequential model (repro.verify.models) the
    #: Definition-1 checker and the crash rebuild both replay
    model_ref: str
    session_ref: str  # "module:Class" of the public-API session
    # -- the discipline: what the one protocol node asks its structure ----
    #: ``(n_priorities, annihilate) -> WaveBuffer``, one per node
    buffer: Callable
    #: ``(n_priorities) -> anchor state`` with ``assign``/``export``/``restore``
    anchor_state: Callable
    decomposer: type  # ``decomposer(assigns).take(runs)`` (stage 3)
    store: type  # per-node DHT store
    #: ``(sub, runs) -> (value, position | None)`` per request, in run order
    place: Callable
    #: ``key(*position, salt)``: the DHT key of a placed position
    key: Callable
    #: the position ends in a ticket: PUT carries ``(.., ticket, owner)``,
    #: GET ``(.., max_ticket)``, and the store files elements by ticket
    ticketed: bool = False
    #: stage 4 holds the node's next wave until every PUT it issued is
    #: acknowledged and every GET answered (the ack returns to the
    #: ``owner`` a ticketed PUT names, so this needs ``ticketed``)
    barrier: bool = False

    def kind_name(self, kind: int) -> str:
        """Human name of an operation kind (INSERT/REMOVE) here."""
        return (self.insert_name, self.remove_name)[kind]

    def check_history(self, records) -> None:
        """Definition 1 over an OpRecord list; raises on violation."""
        seqcons.check_history(records, self.model)

    @property
    def model(self) -> type:
        return _resolve(self.model_ref)

    @property
    def session_class(self) -> type:
        return _resolve(self.session_ref)


REGISTRY: dict[str, StructureSpec] = {}


def register(spec: StructureSpec) -> StructureSpec:
    """Add a structure; everything downstream picks it up by name."""
    REGISTRY[spec.name] = spec
    return spec


def structure_names() -> list[str]:
    return sorted(REGISTRY)


def get_structure(name: str) -> StructureSpec:
    """Look a structure up by name; unknown names list the valid ones."""
    spec = REGISTRY.get(name)
    if spec is None:
        raise ValueError(
            f"unknown structure {name!r} (expected one of "
            f"{', '.join(repr(n) for n in structure_names())})"
        )
    return spec


register(
    StructureSpec(
        name="queue",
        insert_name="enqueue",
        remove_name="dequeue",
        empty_name="dequeue_empty",
        model_ref="repro.verify.models:QueueModel",
        session_ref="repro.api.session:QueueSession",
        buffer=lambda n_priorities, annihilate: QueueBuffer(),
        anchor_state=lambda n_priorities: QueueAnchorState(),
        decomposer=QueueDecomposer,
        store=QueueStore,
        place=place_queue,
        key=position_key,
    )
)
register(
    StructureSpec(
        name="stack",
        insert_name="push",
        remove_name="pop",
        empty_name="pop_empty",
        model_ref="repro.verify.models:StackModel",
        session_ref="repro.api.session:StackSession",
        buffer=lambda n_priorities, annihilate: StackBuffer(annihilate),
        anchor_state=lambda n_priorities: StackAnchorState(),
        decomposer=StackDecomposer,
        store=StackStore,
        place=place_stack,
        key=stack_position_key,
        ticketed=True,
        barrier=True,
    )
)
register(
    StructureSpec(
        name="heap",
        insert_name="insert",
        remove_name="delete_min",
        empty_name="delete_min_empty",
        model_ref="repro.verify.models:HeapModel",
        session_ref="repro.api.session:HeapSession",
        buffer=lambda n_priorities, annihilate: HeapBuffer(n_priorities),
        anchor_state=HeapAnchorState,
        decomposer=HeapDecomposer,
        store=HeapStore,
        place=place_heap,
        key=heap_position_key,
    )
)
