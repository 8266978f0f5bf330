"""JOIN/LEAVE and the update phase (Section IV).

Joins and leaves are handled *lazily*: a routed JOIN lands at the cycle
owner of the new label, which becomes *responsible* — it hands over the
DHT range, forwards PUT/GETs into it, relays the joiner's queue requests
(middle nodes only; left/right virtual nodes are pure structure until
integrated), and counts the grant in its next batch.  A LEAVE is granted
by the left cycle neighbour unless that neighbour itself wants to leave
(the leftmost leaving node wins, which breaks the neighbouring-leavers
deadlock of Section IV-B); a granted node keeps operating as the paper's
*replacement* ``v'`` — same state, now emulated by the responsible
process — until an update phase splices it out.

When the anchor sees a batch with nonzero join/leave counters it stamps
the SERVE wave with a fresh *epoch*: every node suspends batching after
processing that flagged SERVE (all batches of the wave were already
consumed, so the aggregation layer is globally quiescent).  Responsible
nodes then run the splice choreography:

1. ``DEPART_REQ`` to each replacement in the grant chain;
2. replacements answer ``DEPART_META`` (joiner list + successor) as soon
   as they have processed the flagged SERVE;
3. the responsible node splices its whole segment — own joiners, then
   each replacement's joiners, then the first live successor — with
   ``SET_NEIGH``/``SET_PRED``, and commits the departures;
4. on ``DEPART_COMMIT`` a replacement dumps its DHT data (redistributed
   by final ownership; GETs that race the handover simply park at the new
   owner) and lingers as a forwarding zombie until its acknowledgement
   duties end.

Acknowledgements flow leaf-to-root over the *old* tree (every node
remembers ``pold``/``Cold`` from the flagged wave).  When the anchor has
all acks it probes for the global minimum (a routed FIND_MIN to point 0.0
— the owner's successor is the leftmost node), transfers its state there
if the minimum moved (Section IV-A), and the (possibly new) anchor
broadcasts UPDATE_OVER down the *new* tree, after which batching resumes.

What a node knows about *the epoch it is in* is one :class:`EpochState`
in ``Node.epoch`` — ``None`` outside an update, built whole on entry,
dropped whole at the end — so nothing of one epoch can be read in the
next.  What outlives an epoch stays on the node: ``update_epoch``,
``finished_epoch``, ``depart_epoch`` and the facts of the node's own
life (``joining``, ``leaving``, ``replaced``, ``dumped``, ``resp_vid``,
``joiners``, ``replacements``, ..).  Every epoch stamp a message carries
is judged by one rule, :meth:`MembershipMixin._admit`; DESIGN.md
("Epochs") tabulates what each message does with the verdict.
"""

from __future__ import annotations

from repro.core.actions import (
    A_ABSORB,
    A_ACK_UP,
    A_ANCHOR_XFER,
    A_CHASE,
    A_DEPART_COMMIT,
    A_DEPART_DUMP,
    A_DEPART_META,
    A_DEPART_REQ,
    A_FIND_MIN,
    A_GET_REPLY,
    A_JOIN_DEFER,
    A_JOIN_GRANT,
    A_JOIN_RT,
    A_LEAVE_GRANT,
    A_LEAVE_REQ,
    A_MIN_IS,
    A_NEW_RESP,
    A_REQUEUE,
    A_RESP_LEAVE,
    A_RESP_XFER,
    A_SET_NEIGH,
    A_SET_PRED,
    A_SLICE,
    A_SLICE_REQ,
    A_UPDATE_OVER,
)
from repro.dht.storage import key_in_range
from repro.overlay.ldb import MIDDLE
from repro.overlay.routing import route_steps_for

__all__ = ["CURRENT", "EARLY", "STALE", "EpochState", "MembershipMixin"]

_LEAVE_RETRY_ROUNDS = 12
_META_RETRY_ROUNDS = 40
_PASSIVE_GRACE_ROUNDS = 96

#: verdicts of :meth:`MembershipMixin._admit` on an epoch stamp
STALE, CURRENT, EARLY = range(3)


class EpochState:
    """One UPDATE epoch, as one node lives it."""

    __slots__ = (
        "number",
        "release_at",
        "pold",
        "cold",
        "local_done",
        "acked",
        "chain",
        "metas",
        "meta_sent",
        "segment",
    )

    def __init__(
        self,
        number: int,
        pold: int | None = None,
        cold: list[int] | tuple = (),
        release_at: float | None = None,
    ) -> None:
        self.number = number
        # None: served the flagged wave (an *active* member).  Else this
        # node missed the wave and entered *passively*: it is in nobody's
        # Cold, has no splice duty, and may release itself at this time
        self.release_at = release_at
        passive = release_at is not None
        # the ack target is whoever served this wave's batch — recorded at
        # fire time, because splices may have changed the tree parent since
        self.pold = pold
        self.cold = set(cold)  # children served with us: their acks are owed
        self.local_done = passive  # own segment spliced
        self.acked = passive  # ACK_UP sent (the anchor: FIND_MIN sent)
        self.chain: list[int] = []  # replacements departing this epoch
        self.metas: dict[int, tuple] = {}  # their DEPART_METAs, by vid
        self.meta_sent = False  # own DEPART_META sent: this node is departing
        self.segment: list[tuple[float, int]] = []  # (label, vid) spliced in


class MembershipMixin:
    """JOIN/LEAVE handlers mixed into the protocol node classes."""

    __slots__ = ()

    def _admit(self, stamp: int) -> int:
        """Judge the epoch stamp of a message against where this node is.

        ``STALE``: that epoch ended here, or a later one was entered —
        the stamp opens and closes nothing.  ``CURRENT``: the epoch this
        node is in.  ``EARLY``: an epoch still running that this node is
        not in — one it has not entered yet, or one it entered passively
        and released from on its grace timer (``update_epoch`` says it
        was there, ``finished_epoch`` that it never saw the end).  The
        unstamped ``A_REQUEUE`` carries 0, which is stale everywhere.
        """
        if stamp <= self.finished_epoch or stamp < self.update_epoch:
            return STALE
        epoch = self.epoch
        if epoch is not None and stamp == epoch.number:
            return CURRENT
        return EARLY

    def _membership_tick(self) -> None:
        """TIMEOUT's membership chores; the caller saw one of ``epoch``,
        ``leaving``, ``deferred_joins`` set."""
        epoch = self.epoch
        if epoch is not None:
            if (
                epoch.release_at is not None
                and not self.replaced
                and not epoch.meta_sent
                and self.ctx.runtime.now >= epoch.release_at
            ):
                # passively entered epoch (missed-wave bounce): the bounce
                # may have raced that epoch's UPDATE_OVER, which will then
                # never reach us — release after a grace period; if the
                # epoch still runs we just get bounced (and re-released)
                # again.  Departing nodes stay put: their exit (META/DUMP)
                # needs no UPDATE_OVER.
                self.epoch = epoch = None
            elif epoch.chain and not epoch.local_done:
                # re-prod replacements whose META is overdue (their batch
                # may have been marooned outside the flagged wave — see
                # A_CHASE)
                for vid in epoch.chain:
                    if vid not in epoch.metas:
                        self.send(vid, A_DEPART_REQ, (self.vid, epoch.number))
                self.runtime.call_later(self.aid, _META_RETRY_ROUNDS)
        if epoch is None:
            if self.leaving and not self.replaced:
                self._leave_tick()
            if self.deferred_joins:
                self._release_deferred_joins()

    # =====================================================================
    # JOIN (Section IV-A)
    # =====================================================================
    def _grant_join(self, key: float, extra: tuple) -> None:
        """Routed JOIN delivered at the cycle owner of the new label."""
        new_vid, new_label = extra
        if self.joining:
            # a pending joiner cannot take responsibility; bounce to the
            # cycle owner (our responsible node routes onward)
            self._route_start(A_JOIN_RT, key, extra)
            return
        if self._departing():
            # its successor segment is being spliced, so the responsible
            # node re-routes the JOIN once the dust settles
            self.send(self.resp_vid, A_JOIN_DEFER, extra)
            return
        rel = (new_label - self.label) % 1.0
        joiners = self.joiners
        # data holder: the closest predecessor of the newcomer among this
        # node and its pending joiners ("u issues v_i to transfer the DHT
        # data to v'", Section IV-A)
        holder_vid = None
        insert_at = 0
        for i, (joiner_rel, _, joiner_vid) in enumerate(joiners):
            if joiner_rel == rel:  # duplicate routed JOIN: grant is idempotent
                self.send(new_vid, A_JOIN_GRANT, (self.vid, new_label, {}, {}))
                return
            if joiner_rel < rel:
                holder_vid = joiner_vid
                insert_at = i + 1
            else:
                break
        # range end: the next label above the newcomer (joiner or successor)
        if insert_at < len(joiners):
            end_label = joiners[insert_at][1]
        else:
            end_label = self.succ_label
        joiners.insert(insert_at, (rel, new_label, new_vid))
        if holder_vid is None:
            items, parked = self.store.extract_range(new_label, end_label)
            self.send(new_vid, A_JOIN_GRANT, (self.vid, end_label, items, parked))
        else:
            self.send(new_vid, A_JOIN_GRANT, (self.vid, end_label, {}, {}))
            self.send(holder_vid, A_SLICE_REQ, (new_vid, new_label, end_label))
        if new_vid % 3 == MIDDLE:
            self.relay_children.append(new_vid)
        self.pending_joins += 1
        self.wake_me()

    def _drain_pre_grant_buffer(self) -> None:
        """Replay messages buffered while no responsible node was known.

        Re-entering :meth:`handle` routes them through whatever path the
        node's *current* state selects: via the responsible node right
        after the first grant, or the ordinary cycle/De Bruijn walk once
        the node is integrated.
        """
        if self.pre_grant_buffer:
            buffered, self.pre_grant_buffer = self.pre_grant_buffer, []
            for action, buffered_payload in buffered:
                self.handle(action, buffered_payload)

    def _on_join_grant(self, payload: tuple) -> None:
        resp_vid, end_label, items, parked = payload
        if not self.joining:
            # a grant landing after integration — a re-routed duplicate,
            # or the original grant straggling behind the splice (the
            # asynchronous model bounds no delay): the data slice still
            # belongs to us, but the relay registration must not be
            # resurrected.  Anything still buffered routes normally now.
            self._absorb_state(items, parked)
            self._drain_pre_grant_buffer()
            return
        first_grant = self.resp_vid is None
        if first_grant:
            self.resp_vid = resp_vid
            self.joining_range_end = end_label
            if self.kind == MIDDLE:
                self.relay_parent = resp_vid
                self.wake_me()
        self._absorb_state(items, parked)
        if first_grant:
            self._drain_pre_grant_buffer()

    def _on_slice_req(self, payload: tuple) -> None:
        new_vid, new_label, end_label = payload
        items, parked = self.store.extract_range(new_label, end_label)
        if self.joining:
            # a later joiner carved the top of this pending range
            self.joining_range_end = new_label
        # The granter's data payload (our own JOIN_GRANT, or a straggling
        # SLICE/dump) may still be in flight and can carry keys of the
        # range carved here — extract_range above only sees what already
        # arrived.  Remember the carve so _absorb_state forwards late
        # arrivals onward instead of stranding them at a node that no
        # longer owns them (parked GETs at the carved receiver would
        # otherwise never be answered).
        self.carved_ranges.append((new_label, end_label, new_vid))
        self.send(new_vid, A_SLICE, (items, parked))

    def _on_slice(self, payload: tuple) -> None:
        """Handed-over DHT data: a joiner's slice, or (``A_ABSORB``) a
        departed replacement's, redistributed by final ownership."""
        items, parked = payload
        self._absorb_state(items, parked)

    def _absorb_state(self, items: dict, parked: dict) -> None:
        """Merge handed-over DHT state; answer GETs that were waiting.

        Ranges already promised to pending joiners are forwarded on (a
        dump redistribution may arrive after this node carved slices out
        of its range), so data always reaches its final owner.
        """
        if self.carved_ranges and (items or parked):
            for lo, hi, carved_vid in self.carved_ranges:
                carved_items = {
                    k: v for k, v in items.items() if key_in_range(k, lo, hi)
                }
                carved_parked = {
                    k: v for k, v in parked.items() if key_in_range(k, lo, hi)
                }
                if carved_items or carved_parked:
                    for k in carved_items:
                        del items[k]
                    for k in carved_parked:
                        del parked[k]
                    self.send(carved_vid, A_SLICE, (carved_items, carved_parked))
        if self.joiners and (items or parked):
            buckets: dict[int, tuple[dict, dict]] = {}
            own_items: dict = {}
            own_parked: dict = {}
            for key, value in items.items():
                owner = self._joiner_for_key(key)
                if owner is None:
                    own_items[key] = value
                else:
                    buckets.setdefault(owner, ({}, {}))[0][key] = value
            for key, value in parked.items():
                owner = self._joiner_for_key(key)
                if owner is None:
                    own_parked[key] = value
                else:
                    buckets.setdefault(owner, ({}, {}))[1][key] = value
            for owner, (fwd_items, fwd_parked) in buckets.items():
                self.send(owner, A_SLICE, (fwd_items, fwd_parked))
            items, parked = own_items, own_parked
        for ready in self.store.absorb(items, parked):
            self._answer_ready(ready)

    def _answer_ready(self, ready: tuple) -> None:
        """Serve a parked GET: ``ready`` ends ``(context, element)``, the
        context being the GET's own ``extra`` (requester, req_id, ..)."""
        context, element = ready[-2:]
        requester_vid, req_id = context[:2]
        self.send(requester_vid, A_GET_REPLY, (req_id, element, requester_vid))

    # =====================================================================
    # LEAVE (Section IV-B)
    # =====================================================================
    def start_leave(self) -> None:
        """Called by the cluster facade: this node wants to leave."""
        self.leaving = True
        self.wake_me()

    def _leave_tick(self) -> None:
        """TIMEOUT part of leaving: (re)request permission from pred.

        Deferred while this node is itself responsible for joiners or
        replacements (they clear at the next update phase); not called
        while an update phase runs, nor once the leave is granted.
        """
        if self.joiners or self.replacements:
            self.runtime.call_later(self.aid, _LEAVE_RETRY_ROUNDS)
            return
        self.send(self.pred_vid, A_LEAVE_REQ, (self.vid, self.label))
        self.runtime.call_later(self.aid, _LEAVE_RETRY_ROUNDS)

    def _on_leave_req(self, payload: tuple) -> None:
        requester_vid, requester_label = payload
        if requester_vid != self.succ_vid:
            return  # stale pred pointer at the requester; it will retry
        if self.leaving and not self.replaced:
            # both neighbours leaving: the leftmost (this node) wins and
            # the requester postpones (Section IV-B's priority rule)
            return
        if self.replaced:
            if self._departing():
                return  # the requester retries at its new pred
            self.send(
                self.resp_vid,
                A_RESP_LEAVE,
                (requester_vid, requester_label, self.vid),
            )
            return
        self._record_leave_grant(requester_vid)

    def _on_resp_leave(self, payload: tuple) -> None:
        requester_vid, _requester_label, forwarder_vid = payload
        # only honour forwards from the *live tail* of our grant chain: a
        # forward that raced the forwarder's departure (or a splice that
        # put a fresh member between us) would break chain contiguity —
        # the requester simply retries at its new predecessor
        if (
            forwarder_vid not in self.replacement_set
            or self.replacements[-1] != forwarder_vid
        ):
            return
        self._record_leave_grant(requester_vid)

    def _record_leave_grant(self, requester_vid: int) -> None:
        if requester_vid not in self.replacement_set:
            self.replacement_set.add(requester_vid)
            self.replacements.append(requester_vid)
            self.pending_leaves += 1
            self.wake_me()
        self.send(requester_vid, A_LEAVE_GRANT, (self.vid,))

    def _on_leave_grant(self, payload: tuple) -> None:
        (resp_vid,) = payload
        if self.replaced or resp_vid == self.vid:
            # a duplicate — or our own grant to a requester that departed
            # between LEAVE_REQ retries, forwarded home by its zombie
            return
        self.replaced = True
        self.resp_vid = resp_vid
        if self.epoch is not None:
            # the grant raced this epoch's flagged wave: the responsible
            # node may already be waiting for our META
            self._send_depart_meta()
        # the grant can even arrive *last*, behind the whole departure
        # choreography it authorises (async delivery: DEPART_REQ, the
        # COMMIT/dump and the ack wave all overtook it).  Every earlier
        # zombie check refused on replaced=False, and this flag was the
        # final exit condition — so re-check here or the fully-departed
        # node lingers on the old epoch forever
        self._maybe_zombie_exit()

    # =====================================================================
    # Update phase (Section IV)
    # =====================================================================
    def _on_flagged_serve(
        self, epoch: int, served_children: list[int], sent_to: int | None
    ) -> None:
        """A SERVE of the wave the anchor stamped with ``epoch``, for the
        batch this node had sent to ``sent_to`` (``None``: the anchor)."""
        verdict = self._admit(epoch)
        if verdict == EARLY:
            self._enter_update(epoch, served_children, sent_to)
            return
        if verdict == CURRENT and sent_to is not None:
            # a flagged serve landed on a node that already entered this
            # epoch through a different edge — possible only when the
            # serve relation is not a tree, i.e. when a transferred anchor
            # consumed the wave while its own batch was still riding the
            # cycle (see timeout()).  The server just added us to its
            # Cold, but our splice duties report along our real entry
            # path (pold), so this extra edge carries none: release it
            # immediately, or the acknowledgement wave deadlocks on the
            # cycle — every member waits for a served "child" that is
            # actually its ancestor
            self.send(sent_to, A_ACK_UP, (self.vid,))
        self.wake_me()

    def _enter_update(
        self, epoch: int, served_children: list[int], sent_to: int | None
    ) -> None:
        self.update_epoch = epoch
        state = self.epoch = EpochState(epoch, pold=sent_to, cold=served_children)
        # tree batches still buffered here missed the flagged wave: their
        # senders requeue and join the epoch passively (relay batches stay
        # buffered — pending joiners are served after the update)
        self._bounce_tree_batches(epoch)
        if self.replaced:
            # my segment is my responsible node's job
            state.local_done = True
            self._send_depart_meta()
            self._check_update_done()
        elif self.replacements:
            state.chain = list(self.replacements)
            for replacement_vid in state.chain:
                self.send(replacement_vid, A_DEPART_REQ, (self.vid, epoch))
            self.runtime.call_later(self.aid, _META_RETRY_ROUNDS)
        else:
            self._splice_segment([])
            state.local_done = True
            self._check_update_done()

    def _bounce_tree_batches(self, epoch: int) -> None:
        """Send every buffered tree batch back to its sender to re-fire."""
        batches = self.child_batches
        for vid in [v for v, entry in batches.items() if not entry[3]]:
            del batches[vid]
            self.send(vid, A_REQUEUE, (epoch,))

    # -- departures ---------------------------------------------------------------
    def _enter_epoch_passively(self, epoch: int) -> None:
        """Join an epoch without having been served its flagged wave.

        Used by nodes whose batch missed the wave: they owe no
        acknowledgement (they are in nobody's Cold) and have no splice
        duties this epoch; departing replacements still send their META.

        The caller admitted ``epoch`` as ``EARLY``.  That includes the
        epoch this node released from on its grace timer (the epoch
        outlasted it) and got bounced into again — for a replaced node,
        re-entry is what (re)sends the DEPART_META its responsible node
        is blocked on — and excludes every epoch that finished here, so
        a stale bounce cannot resurrect a closed epoch.
        """
        self.update_epoch = epoch
        self.epoch = EpochState(
            epoch, release_at=self.ctx.runtime.now + _PASSIVE_GRACE_ROUNDS
        )
        if self.replaced:
            self._send_depart_meta()
        self.runtime.call_later(self.aid, _PASSIVE_GRACE_ROUNDS + 1)

    def _on_depart_req(self, payload: tuple) -> None:
        requester_vid, epoch = payload
        if requester_vid == self.vid:
            # our own META-retry to a replacement that departed between
            # retries, forwarded home by its zombie: the replacement's
            # META is already in flight to us, or already processed —
            # either way this node was asked nothing
            return
        if self._admit(epoch) == STALE:
            return
        # the requester is authoritative: responsibility may have been
        # transferred to a freshly spliced member since our grant
        self.resp_vid = requester_vid
        self.depart_epoch = epoch
        if self.epoch is not None:
            # (a request for the epoch after the one still open here is
            # answered on entering that one)
            self._send_depart_meta()
        elif self.flight is None:
            self._enter_epoch_passively(epoch)
        else:
            # our batch is marooned in a wave outside the flagged one:
            # chase it — whoever still buffers it unconsumed bounces it
            # back, which requeues us and lets us join the epoch
            self.send(self.flight.sent_to, A_CHASE, (self.vid, epoch))

    def _on_chase(self, payload: tuple) -> None:
        origin_vid, epoch = payload
        entry = self.child_batches.get(origin_vid)
        if entry is not None:
            if entry[3]:
                return  # relay batches are served after the update anyway
            del self.child_batches[origin_vid]
            self.send(origin_vid, A_REQUEUE, (epoch,))
            return
        flight = self.flight
        if (
            flight is not None
            and self.epoch is None
            and any(src == origin_vid for src, _ in flight.plan)
        ):
            # we combined the marooned batch and our own batch is also
            # outside the flagged wave: chase one level up
            self.send(flight.sent_to, A_CHASE, (self.vid, epoch))

    def _on_resp_xfer(self, payload: tuple) -> None:
        (chain,) = payload
        for vid in chain:
            if vid not in self.replacement_set:
                self.replacement_set.add(vid)
                self.replacements.append(vid)

    def _on_new_resp(self, payload: tuple) -> None:
        (new_resp,) = payload
        self.resp_vid = new_resp

    def _send_depart_meta(self) -> None:
        """Answer the DEPART_REQ stamped with the open epoch, once."""
        epoch = self.epoch
        if epoch.meta_sent or self.depart_epoch != epoch.number:
            return
        epoch.meta_sent = True
        # relay children whose latest batch was never fired upward must be
        # told to requeue their in-flight requests after integration
        pending_relays = tuple(
            vid for vid in self.relay_children if vid in self.child_batches
        )
        meta = (
            self.vid,
            tuple((label, vid) for (_rel, label, vid) in self.joiners),
            pending_relays,
            self.succ_vid,
            self.succ_label,
        )
        self.send(self.resp_vid, A_DEPART_META, meta)

    def _on_depart_meta(self, payload: tuple) -> None:
        vid = payload[0]
        epoch = self.epoch
        if epoch is None or epoch.local_done or vid not in epoch.chain:
            return  # not awaited: no DEPART_REQ of the open epoch asked for it
        chain, metas = epoch.chain, epoch.metas
        metas[vid] = payload
        if all(v in metas for v in chain):
            self._splice_segment([metas[v] for v in chain])
            for replacement_vid in chain:
                self.send(replacement_vid, A_DEPART_COMMIT, ())
            # departed replacements leave the chain; grants that arrived
            # mid-update stay for the next epoch
            departed = set(chain)
            self.replacements = [
                v for v in self.replacements if v not in departed
            ]
            self.replacement_set -= departed
            epoch.local_done = True
            self._check_update_done()

    def _on_depart_commit(self, _payload: tuple) -> None:
        # hand every stored element, parked GET and unflushed request to
        # the responsible node, which redistributes/adopts them; from now
        # on this node is a forwarding zombie outside the cycle
        self.dumped = True
        # tree batches still buffered here would vanish with this node
        # (a replacement that entered its epoch passively never ran the
        # missed-wave requeue of _enter_update): bounce them so their
        # senders re-fire at the spliced cycle.  Relay batches are
        # handled by the META/splice choreography (pending_relays).
        self._bounce_tree_batches(0)
        items = self.store.items
        parked = self.store.parked
        self.store = self.ctx.spec.store()
        leftover = self.buffer.drain()
        self.send(self.resp_vid, A_DEPART_DUMP, (items, parked, leftover))
        self._maybe_zombie_exit()

    def _on_depart_dump(self, payload: tuple) -> None:
        items, parked, leftover = payload
        self._adopt_records(leftover)
        epoch = self.epoch
        members = epoch.segment if epoch is not None else ()
        if not members:
            self._absorb_state(items, parked)
            return
        base = self.label
        member_rels = [((label - base) % 1.0, vid) for (label, vid) in members]
        buckets: dict[int, tuple[dict, dict]] = {}

        def owner_of(key: float) -> int:
            rel = (key - base) % 1.0
            owner = self.vid
            for member_rel, member_vid in member_rels:
                if member_rel <= rel:
                    owner = member_vid
                else:
                    break
            return owner

        for key, element in items.items():
            owner = owner_of(key)
            buckets.setdefault(owner, ({}, {}))[0][key] = element
        for key, context in parked.items():
            owner = owner_of(key)
            buckets.setdefault(owner, ({}, {}))[1][key] = context
        for owner, (owner_items, owner_parked) in buckets.items():
            if owner == self.vid:
                self._absorb_state(owner_items, owner_parked)
            else:
                self.send(owner, A_ABSORB, (owner_items, owner_parked))

    def _departing(self) -> bool:
        """Granted, and past the DEPART_META that lets the responsible
        node splice this node's successor segment."""
        epoch = self.epoch
        return self.replaced and epoch is not None and epoch.meta_sent

    def _maybe_zombie_exit(self) -> None:
        """A departed replacement disappears once its ack duties are done."""
        epoch = self.epoch
        if (
            self.replaced
            and self.dumped
            and epoch is not None
            and epoch.acked
            and not epoch.cold
            and not self.is_anchor
        ):
            self._zombie_exit()

    def _zombie_exit(self) -> None:
        if self.departed:
            return
        self.departed = True
        self._release_deferred_joins()
        self.runtime.remove_actor(self.aid, forward_to=self.resp_vid)
        # a parent waiting on this zombie's batch only notices the
        # removal when its child set is re-evaluated — push that
        # re-check instead of leaving it to a (possibly absent) sweep
        self._wake_stale_parents(None)

    # -- splice ----------------------------------------------------------------------
    def _splice_segment(self, metas: list[tuple]) -> None:
        """Rewire the cycle across this node's junction.

        ``metas`` come in grant-chain order, which is cycle order; each
        contributes its pending joiners.  The final successor is the first
        live node past the departing chain.
        """
        members: list[tuple[float, int]] = [
            (label, vid) for (_rel, label, vid) in self.joiners
        ]
        pending_requeue = {
            vid for vid in self.relay_children if vid in self.child_batches
        }
        final_succ_vid = self.succ_vid
        final_succ_label = self.succ_label
        for meta in metas:
            _vid, meta_joiners, meta_pending, succ_vid, succ_label = meta
            members.extend(meta_joiners)
            pending_requeue.update(meta_pending)
            final_succ_vid = succ_vid
            final_succ_label = succ_label
        if not members and not metas:
            return  # nothing changed at this junction
        # cycle order: sort by label relative to this junction (deferred
        # grants may have interleaved members across sub-ranges)
        base = self.label
        members.sort(key=lambda member: (member[0] - base) % 1.0)
        chain: list[tuple[float, int]] = (
            [(self.label, self.vid)] + members + [(final_succ_label, final_succ_vid)]
        )
        # drop the relay batches of requeueing members: their requests
        # never reached the anchor and will be resent post-integration
        for vid in pending_requeue:
            self.child_batches.pop(vid, None)
        for i, (label, vid) in enumerate(chain[1:-1], start=1):
            pred_label, pred_vid = chain[i - 1]
            succ_label, succ_vid = chain[i + 1]
            self.send(
                vid,
                A_SET_NEIGH,
                (
                    pred_vid,
                    pred_label,
                    succ_vid,
                    succ_label,
                    vid in pending_requeue,
                ),
            )
        self.succ_label, self.succ_vid = chain[1]
        last_label, last_vid = chain[-2]
        self.send(final_succ_vid, A_SET_PRED, (last_vid, last_label))
        epoch = self.epoch
        epoch.segment = members
        self.joiners = []
        self.relay_children = []  # every relay is integrated with the segment
        # replacements that are NOT departing this epoch now sit behind the
        # spliced members: their direct predecessor — the last member —
        # inherits the grant chain, restoring the contiguity invariant
        departing = set(epoch.chain)
        remaining = [v for v in self.replacements if v not in departing]
        if remaining and members:
            new_resp = members[-1][1]
            self.send(new_resp, A_RESP_XFER, (tuple(remaining),))
            for vid in remaining:
                self.send(vid, A_NEW_RESP, (new_resp,))
            self.replacements = [v for v in self.replacements if v in departing]
            self.replacement_set -= set(remaining)

    def _on_set_neigh(self, payload: tuple) -> None:
        pred_vid, pred_label, succ_vid, succ_label, requeue = payload
        self.pred_vid = pred_vid
        self.pred_label = pred_label
        self.succ_vid = succ_vid
        self.succ_label = succ_label
        was_joining = self.joining
        self.joining = False
        self.relay_parent = None
        self.resp_vid = None
        if requeue and self.flight is not None:
            self._requeue_inflight()
        if was_joining:
            # routed messages buffered while ungranted must not outlive
            # the join: if the grant lost the race against the splice
            # (async delays are unbounded), this is their last exit
            self._drain_pre_grant_buffer()
        # the splice changed who this node's neighbours (and hence wave
        # parents/children) are: re-check readiness here and push a
        # re-check at both neighbours, whose child sets just changed too
        self.wake_me()
        runtime = self.ctx.runtime
        if pred_vid is not None and pred_vid >= 0:
            runtime.wake(pred_vid)
        if succ_vid is not None and succ_vid >= 0:
            runtime.wake(succ_vid)

    def _requeue_inflight(self) -> None:
        """Un-send a relay batch that never reached the anchor.

        The responsible node confirmed it still held (and dropped) the
        batch, so no positions were assigned; the buffered requests simply
        rejoin the front of the local buffer and go out with the next
        wave.
        """
        flight, self.flight = self.flight, None
        # the batch never reached the anchor, so its join/leave counters
        # were never seen either: restore our own share (children restore
        # theirs via the requeue cascade)
        joins, leaves = flight.counts
        self.pending_joins += joins
        self.pending_leaves += leaves
        if flight.records:
            self.buffer.requeue(flight.records)
        self.wake_me()

    def _on_set_pred(self, payload: tuple) -> None:
        pred_vid, pred_label = payload
        self.pred_vid = pred_vid
        self.pred_label = pred_label
        # new predecessor == possibly a new aggregation parent/child pair
        self.wake_me()
        if pred_vid is not None and pred_vid >= 0:
            self.ctx.runtime.wake(pred_vid)

    # -- acknowledgement wave over the old tree -----------------------------------------
    def _on_ack_up(self, payload: tuple) -> None:
        (child_vid,) = payload
        epoch = self.epoch
        if epoch is not None:
            epoch.cold.discard(child_vid)
            self._check_update_done()
            self._maybe_zombie_exit()

    def _check_update_done(self) -> None:
        epoch = self.epoch
        if epoch is None or not epoch.local_done or epoch.cold or epoch.acked:
            return
        epoch.acked = True
        if self.is_anchor:
            # finale: find the (possibly new) leftmost node via the owner
            # of point 0 — its successor is the global minimum
            self._route_start(A_FIND_MIN, 0.0, (self.vid, epoch.number))
        else:
            self.send(epoch.pold, A_ACK_UP, (self.vid,))
            self._maybe_zombie_exit()

    def _on_find_min(self, _key: float, extra: tuple) -> None:
        reply_vid, epoch = extra
        self.send(reply_vid, A_MIN_IS, (self.succ_vid, epoch))

    def _on_min_is(self, payload: tuple) -> None:
        min_vid, epoch = payload
        if min_vid == self.vid:
            self._broadcast_update_over(epoch, self.anchor_state.members)
        else:
            state = self.anchor_state.export()
            self.anchor_state = None
            self.is_anchor = False
            self.send(min_vid, A_ANCHOR_XFER, (state, epoch))
            if self.replaced and self.dumped:
                # a departed anchor-replacement exits once its duties end
                self._zombie_exit()

    def _on_anchor_xfer(self, payload: tuple) -> None:
        state, epoch = payload
        ctx = self.ctx
        self.anchor_state = ctx.spec.anchor_state(ctx.n_priorities).restore(state)
        self.is_anchor = True
        self._broadcast_update_over(epoch, self.anchor_state.members)

    # -- resuming -------------------------------------------------------------------------
    def _broadcast_update_over(self, epoch: int, members: int) -> None:
        """UPDATE_OVER travels the new tree *and* the ring, both ways.

        Tree edges give O(log n) depth, but nodes whose same-process edge
        is temporarily broken (siblings integrating in different epochs)
        can be nobody's tree child.  The ring hops guarantee coverage of
        the whole cycle; they go to *both* neighbours because under churn
        a node's pred/succ pointers may straddle a just-spliced segment —
        a one-directional walk with a wrap guard can stop early, leaving
        part of the cycle suspended in the epoch forever (batching stays
        suspended while updating, so such a gap deadlocks the deployment).
        A bidirectional flood over a connected cycle reaches everyone,
        and each node relays a given epoch at most once (``_finish_update``
        makes it stale for ``_admit``), so the cost is O(n) messages per epoch.
        ``members`` piggybacks the anchor's network-size estimate so every
        node can refresh its De Bruijn routing depth locally.
        """
        self._finish_update(epoch, members)
        for child in self._aggregation_children():
            self.send(child, A_UPDATE_OVER, (epoch, members))
        if self.succ_vid >= 0:
            self.send(self.succ_vid, A_UPDATE_OVER, (epoch, members))
        if self.pred_vid >= 0:
            self.send(self.pred_vid, A_UPDATE_OVER, (epoch, members))

    def _on_update_over(self, payload: tuple) -> None:
        epoch, members = payload
        if self.replaced and self.dumped:
            # a zombie reached via a stale tree pointer: nothing to resume
            return
        if self._admit(epoch) == STALE:
            # a duplicate (tree + ring deliver more than once) or an
            # earlier epoch's broadcast still in flight.  A passive
            # entrant that released on its grace timer is *not* stale:
            # it has neither finished nor relayed the epoch, and dropping
            # the flood there would break the ring's bidirectional
            # coverage guarantee (see _broadcast_update_over) for any
            # active node spliced between two such neighbours
            return
        self._broadcast_update_over(epoch, members)

    def _on_requeue(self, payload: tuple) -> None:
        """Our in-flight batch never went up the tree: resend it ourselves.

        A nonzero epoch means the batch missed that epoch's flagged wave:
        the requeue cascades to the sub-batches this node had combined
        (their senders missed the wave too), and this node joins the
        epoch *passively* — it suspends and, if it is a departing
        replacement, sends its META — but owes no acknowledgement, since
        it was not served in the flagged wave and is in nobody's Cold.
        """
        (epoch,) = payload
        if self.flight is not None:
            for src, _runs in self.flight.plan:
                if src != -1:
                    self.send(src, A_REQUEUE, (epoch,))
            self._requeue_inflight()
        if self._admit(epoch) == EARLY:
            self._enter_epoch_passively(epoch)

    def _on_join_defer(self, payload: tuple) -> None:
        if self.replaced and self.resp_vid is not None:
            # a deferred JOIN must end at a node that will live to re-route
            # it: bubble along the responsibility chain to a real node
            self.send(self.resp_vid, A_JOIN_DEFER, payload)
        elif self.epoch is None:
            # no update in progress: the ring is stable, re-route right
            # away — the label's present owner grants
            new_vid, new_label = payload
            self._route_start(A_JOIN_RT, new_label, (new_vid, new_label))
        else:
            self.deferred_joins.append(payload)

    def _release_deferred_joins(self) -> None:
        """Give every held JOIN its next hop: called once no epoch is
        open here, and by a zombie on its way out (which bubbles them)."""
        deferred, self.deferred_joins = self.deferred_joins, []
        for payload in deferred:
            self._on_join_defer(payload)

    def _finish_update(self, epoch: int, members: int = 0) -> None:
        self.epoch = None
        self.update_epoch = max(self.update_epoch, epoch)
        self.finished_epoch = max(self.finished_epoch, epoch)
        if members > 0:
            # the paper's size estimate, piggybacked on UPDATE_OVER: every
            # node refreshes its routing depth without a global view (the
            # sim facade used to substitute len(actors) here)
            self.ctx.route_steps = route_steps_for(members)
        self._release_deferred_joins()
        hook = self.ctx.on_update_over
        if hook is not None:
            hook(epoch, members)
        self.wake_me()

