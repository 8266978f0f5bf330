"""Versioned cluster membership for the TCP runtime (`ClusterMap`).

A static deployment could derive everything from two integers (a
modulo rule for ownership, ``req_id % n_hosts`` for completion routing).
With live host join/leave neither stays well-defined, so the control
plane carries an explicit, versioned map instead:

* ``hosts`` — live host_index -> (address, port).  Host indices are
  **never reused**; a joining host gets ``next_host`` and keeps it for
  the deployment's lifetime.
* ``pid_owner`` — pid -> host_index for every submittable pid.  Genesis
  gives each host one contiguous arc of the pids in middle-label order
  (:meth:`ClusterMap.genesis`), so an aggregation-tree path crosses
  each host boundary at most once; a joining host brings *fresh* pids
  (``next_pid`` onward, wherever their labels fall) that enter the
  overlay through the paper's JOIN machinery, and a draining host's
  pids disappear with it — pids never migrate between hosts, so the
  same-process sibling locality argument of DESIGN.md is preserved
  across churn.
* ``leaving`` — hosts currently draining; clients stop picking their
  pids, but in-flight requests on them still complete (the LEAVE
  choreography adopts unflushed requests, see ``core/membership.py``).
* ``departed`` — retired host_index -> adopter host_index.  The adopter
  holds the retiree's record archive, so stale COMPLETE frames and
  history collection keep working across epochs.
* ``forwards`` — vid -> vid forwarding addresses accumulated from
  retired hosts' runtimes, installed into every live runtime so routed
  stragglers to spliced-out virtual nodes still resolve.
* ``id_slots`` — the *fixed* modulus of the req_id origin residue
  (``req_id % id_slots == submitting host_index``).  It is chosen at
  genesis and never changes, which is what keeps RecordTable routing
  stable while ``len(hosts)`` fluctuates; it also caps the number of
  host indices a deployment can ever hand out.

Every mutation bumps ``version``; receivers apply a map iff its version
is newer, so broadcasts may race, duplicate, or arrive via different
paths (peer links, client pushes, ``map`` pulls) without confusion.
The **coordinator** — the lowest live host_index — serialises all
membership mutations; it cannot itself be drained.  Every mutation is a
method here: the coordinator applies one to a :meth:`ClusterMap.copy` of
its map and adopts the result like any other host
(:meth:`repro.net.control.ControlPlane.adopt`), so no field is written
outside this module and a map a host holds is never written again: a
frame carries the map itself, packed only when its link writes.
"""

from __future__ import annotations

from repro.util.hashing import label_of

__all__ = ["ClusterMap"]


class ClusterMap:
    """The versioned membership view shared by hosts and clients."""

    __slots__ = (
        "version",
        "hosts",
        "pid_owner",
        "leaving",
        "departed",
        "forwards",
        "next_pid",
        "next_host",
        "id_slots",
        "n_genesis",
        "recovery_epoch",
    )

    def __init__(
        self,
        version: int = 0,
        hosts: dict[int, tuple[str, int]] | None = None,
        pid_owner: dict[int, int] | None = None,
        leaving: set[int] | None = None,
        departed: dict[int, int] | None = None,
        forwards: dict[int, int] | None = None,
        next_pid: int = 0,
        next_host: int = 0,
        id_slots: int = 0,
        n_genesis: int = 0,
        recovery_epoch: int = 0,
    ) -> None:
        self.version = version
        self.hosts = dict(hosts or {})
        self.pid_owner = dict(pid_owner or {})
        self.leaving = set(leaving or ())
        self.departed = dict(departed or {})
        self.forwards = dict(forwards or {})
        self.next_pid = next_pid
        self.next_host = next_host
        self.id_slots = id_slots
        self.n_genesis = n_genesis
        self.recovery_epoch = recovery_epoch

    # -- construction ---------------------------------------------------------
    @classmethod
    def genesis(
        cls,
        host_map: dict[int, tuple[str, int]],
        n_processes: int,
        id_slots: int = 0,
        salt: str = "",
    ) -> "ClusterMap":
        """The launch-time map, version 1: each host owns one contiguous
        arc of the pids in middle-label order (``salt`` draws the labels,
        as it does for every host's :class:`~repro.overlay.ldb.LdbTopology`).

        A tree edge between two pids leads to the smaller middle label
        (only a left node's parent is another pid's: its cycle
        predecessor, below half the middle label), so the owner's rank
        among the hosts never rises going up the aggregation tree and a
        root path changes host at most ``len(host_map) - 1`` times,
        whatever the pid count.
        """
        hosts = sorted(host_map)
        by_label = sorted(range(n_processes),
                          key=lambda pid: label_of(pid, salt=salt))
        return cls(
            version=1,
            hosts=host_map,
            pid_owner={
                pid: hosts[rank * len(hosts) // n_processes]
                for rank, pid in enumerate(by_label)
            },
            next_pid=n_processes,
            next_host=len(hosts),
            id_slots=id_slots or len(hosts),
            n_genesis=n_processes,
        )

    def copy(self) -> "ClusterMap":
        """An independent draft the coordinator may mutate and publish."""
        return ClusterMap(**{name: getattr(self, name)
                             for name in self.__slots__})

    # -- queries ---------------------------------------------------------------
    @property
    def coordinator(self) -> int:
        """Lowest live host index: the membership serialisation point."""
        return min(self.hosts)

    def owner_of(self, pid: int) -> int | None:
        return self.pid_owner.get(pid)

    def live_pids(self) -> list[int]:
        """Pids clients should pick: owned by a host that is not draining."""
        return sorted(
            pid
            for pid, host in self.pid_owner.items()
            if host not in self.leaving
        )

    def pids_of(self, host_index: int) -> list[int]:
        return sorted(
            pid for pid, host in self.pid_owner.items() if host == host_index
        )

    def complete_target(self, origin: int) -> int | None:
        """Host to send a COMPLETE/value sync for an origin residue.

        The origin itself while live; its record adopter once it has
        retired (COMPLETEs keep flowing across membership epochs);
        ``None`` for an index this deployment never handed out.
        """
        if origin in self.hosts:
            return origin
        adopter = self.departed.get(origin)
        while adopter is not None and adopter not in self.hosts:
            adopter = self.departed.get(adopter)
        return adopter

    # -- mutations (coordinator only) -----------------------------------------
    def reserve_join(self, n_pids: int) -> tuple[int, list[int]]:
        """Hand out the next host_index and ``n_pids`` fresh pids.

        Counters advance immediately (reservations survive a joiner that
        never commits — indices are cheap and never reused), but the map
        version is untouched: nothing observable changed yet.
        """
        if self.next_host >= self.id_slots:
            raise ValueError(
                f"id_slots={self.id_slots} exhausted: no host indices left "
                "(choose a larger id_slots at launch for long-lived churn)"
            )
        host_index = self.next_host
        self.next_host += 1
        pids = list(range(self.next_pid, self.next_pid + n_pids))
        self.next_pid += n_pids
        return host_index, pids

    def commit_join(
        self, host_index: int, address: tuple[str, int], pids: list[int]
    ) -> None:
        self.hosts[host_index] = (address[0], address[1])
        for pid in pids:
            self.pid_owner[pid] = host_index
        self.version += 1

    def start_drain(self, host_index: int) -> None:
        if host_index not in self.hosts:
            raise ValueError(f"host {host_index} is not live")
        self.leaving.add(host_index)
        self.version += 1

    def merge_forwards(self, forwards: dict[int, int]) -> None:
        """Fold in forwarding addresses a draining host published."""
        self.forwards.update(forwards)
        self.version += 1

    def retire_host(
        self, host_index: int, adopter: int, forwards: dict[int, int]
    ) -> None:
        self.hosts.pop(host_index, None)
        self.leaving.discard(host_index)
        for pid in self.pids_of(host_index):
            del self.pid_owner[pid]
        self.departed[host_index] = adopter
        self.forwards.update(forwards)
        self.version += 1

    def evict_host(self, host_index: int, adopter: int) -> None:
        """Crash-evict a host that died without draining.

        Unlike :meth:`retire_host` there is no handover to merge — the
        host is gone.  Its pids disappear (dead-pid records are promoted
        from replicas by the recovery choreography, see
        ``repro.ops.recovery``), the adopter takes over the departed
        chain for COMPLETE routing, and ``recovery_epoch`` bumps: every
        data-plane frame carries the epoch it was sent under, and frames
        from an older epoch are dropped — the generation fence that keeps
        pre-crash stragglers from corrupting the rebuilt state.

        The rebuild respawns every surviving pid as a full member, so
        what described departures in progress goes with the old epoch:
        ``leaving`` (an eviction cancels every drain; the operator
        re-issues ``leave``) and ``forwards`` (a respawned node must not
        be bypassed by the forward its cancelled departure left).
        """
        if host_index not in self.hosts:
            raise ValueError(f"host {host_index} is not live")
        if adopter not in self.hosts or adopter == host_index:
            raise ValueError(f"adopter {adopter} is not a live other host")
        self.hosts.pop(host_index)
        for pid in self.pids_of(host_index):
            del self.pid_owner[pid]
        self.departed[host_index] = adopter
        self.leaving.clear()
        self.forwards.clear()
        self.version += 1
        self.recovery_epoch += 1

    def successors_of(self, host_index: int, k: int = 2) -> list[int]:
        """The next ``k`` live host indices after ``host_index`` in the
        cyclic index order — the replica holders of its records."""
        ring = sorted(h for h in self.hosts if h != host_index)
        if not ring:
            return []
        start = 0
        while start < len(ring) and ring[start] < host_index:
            start += 1
        rotated = ring[start:] + ring[:start]
        return rotated[:k]
