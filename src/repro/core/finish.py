"""The ``finish`` construct (paper §III-A).

``finish`` is a block-structured, *collective* construct over a team:
every member enters a matching block, and ``end finish`` blocks until all
implicitly-synchronized asynchronous operations initiated inside the
block — by any member, including transitively spawned functions — are
globally complete.

Matching
--------
Finish blocks match across images by ``(team id, per-team finish sequence
number)``; because CAF 2.0 is SPMD, each image's N-th finish block on a
team pairs with its teammates' N-th.  A :class:`FinishFrame` holds one
image's counters for one block; frames are created lazily, because a
shipped function can land on an image *before* that image has entered its
own copy of the block.

Counting (Fig. 7)
-----------------
Each frame keeps two epochs (even/odd), each with four counters:

- ``sent``       — counted messages this image initiated;
- ``delivered``  — of those, how many have been acknowledged delivered;
- ``received``   — counted messages that landed on this image;
- ``completed``  — of those, how many have finished their local work.

A message is tagged with whether it was sent "inside" the current wave's
consistent cut; all four counter updates for that message go to the epoch
named by the tag.  Receiving an odd-tagged message hoists the receiver
into the odd epoch (Fig. 7, line 32) — that is what makes the allreduce
cut consistent without FIFO channels or global clocks.

The tag is *causal*, not phase-based.  Classifying a send purely by the
sender image's current phase is unsound: an image hoisted into the odd
epoch may still be running (a) its main program, whose sends precede its
allreduce join and are forced delivered by the line-4 wait, and (b) a
shipped-function handler whose receive was folded into the even epoch by
a wave exit while its body was still running.  In both cases the work is
accounted *inside* the cut (line 4 waits on ``even``), so hiding its
sends in ``odd`` lets an allreduce read zero with counted messages
outstanding — finish returns while shipped functions still run.
:meth:`FinishFrame.on_send` therefore classifies each send by the
*cause* of the sending activation: main-program sends count even (they
happen before this image contributes to the wave); handler sends follow
their receive — odd while the receive is still hidden in the odd epoch,
even once it has been folded into the visible cut (provided this image
has not yet contributed its even counters to the in-flight wave), and
odd again after the contribution, so late sends cannot pair with an
already-read completion on the remote side.

One bookkeeping detail the pseudo-code leaves implicit: when the odd
epoch is *folded* into the even one (allreduce exit), counts for odd-
tagged messages still in flight must follow their ``sent``/``received``
counterparts into the even epoch.  We track a per-frame fold generation;
a delivery ack (or completion) whose message was stamped in an earlier
generation lands in the even epoch, where its matching count now lives.
Without this, a late ack strands ``even.sent > even.delivered`` forever
and the line-4 wait deadlocks.

What counts
-----------
Spawns, asynchronous copies, and asynchronous collectives initiated with
*implicit* completion (no event arguments) while a frame is current.
Operations carrying explicit events manage their own completion and are
not tracked (§III: finish guarantees are for implicitly-synchronized
operations).  The detector's own allreduce traffic is never counted.

Failure reconciliation (DESIGN §11)
-----------------------------------
Under the fail-stop model a crashed image takes its counters with it, so
the surviving members' sums can never balance unless every count that
*paired* with the dead image is removed.  :meth:`FinishFrame.
reconcile_failure` does that subtraction when the failure detector
publishes a suspect: fully-delivered sends to the dead peer
(``delivered_to``) leave ``sent``/``delivered`` together, and receipts
from it (``received_from``/``completed_from``) leave
``received``/``completed``.  Sends still in flight are uncounted one at
a time by :meth:`on_send_failed` when the transport surfaces
``PeerFailedError`` — never at reconcile time, so nothing is subtracted
twice.  After reconciliation the peer lands in ``reconciled`` and later
counter events that name it are ignored.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.tasks import Condition
from repro.runtime.team import Team


class FinishUsageError(RuntimeError):
    """Structural misuse of finish (mismatched end, bad team nesting...)."""


class Epoch:
    """Four counters of Fig. 7's ``epoch`` structure."""

    __slots__ = ("sent", "delivered", "received", "completed")

    def __init__(self) -> None:
        self.sent = self.delivered = self.received = self.completed = 0

    def fold_from(self, other: "Epoch") -> None:
        """Accumulate ``other`` into self and zero it (Fig. 7 lines 16-25)."""
        self.sent += other.sent
        self.delivered += other.delivered
        self.received += other.received
        self.completed += other.completed
        other.sent = other.delivered = other.received = other.completed = 0

    def locally_quiet(self) -> bool:
        """Fig. 7 line 4: all my sends landed, all my receipts completed."""
        return (self.sent == self.delivered
                and self.completed == self.received)

    def counts(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def describe(self, name: str = "Epoch") -> str:
        return (f"{name}(sent={self.sent}, delivered={self.delivered}, "
                f"received={self.received}, completed={self.completed})")

    __repr__ = describe


class FinishFrame:
    """One image's state for one finish block.

    Slotted and peer-sparse: every per-peer map holds entries only for
    peers this image actually exchanged counted messages with, so a
    frame's footprint follows the communication degree, not the image
    count (DESIGN.md §13)."""

    __slots__ = ("machine", "world_rank", "team", "seq", "key", "even",
                 "odd", "present", "gen", "contributed", "cond", "rounds",
                 "sent_to", "delivered_to", "received_from",
                 "completed_from", "reconciled", "_reconcile_stamps",
                 "ledger")

    def __init__(self, machine, world_rank: int, team: Team, seq: int):
        self.machine = machine
        self.world_rank = world_rank
        self.team = team
        self.seq = seq
        self.key = (team.id, seq)
        self.even = Epoch()
        self.odd = Epoch()
        self.present = self.even
        #: fold generation (bumped by fold_to_even; see module docstring)
        self.gen = 0
        #: True between this image contributing its even counters to an
        #: allreduce wave and the fold on that wave's exit; handler sends
        #: in that window are post-cut and must hide in odd (see
        #: module docstring, "causal" tagging)
        self.contributed = False
        self.cond = Condition(machine.sim, f"finish{self.key}@{world_rank}")
        #: diagnostic: allreduce waves this image participated in
        self.rounds = 0
        #: per-destination send counts (X10-style vector detector)
        self.sent_to: dict[int, int] = {}
        # Per-peer pairing counters, consumed by reconcile_failure.
        self.delivered_to: dict[int, int] = {}
        self.received_from: dict[int, int] = {}
        self.completed_from: dict[int, int] = {}
        #: peers whose counts were reconciled out of this frame; seeded
        #: from the failure service's *confirmed* set so frames created
        #: lazily after a confirmation never count traffic paired with
        #: the dead image.  Mere suspicion does not reconcile (DESIGN
        #: §12): the suspect's traffic is quarantined, not lost.
        self.reconciled: set[int] = set()
        failure = getattr(machine, "failure", None)
        if failure is not None:
            self.reconciled |= failure.confirmed
        #: exact-subtraction stamps per reconciled peer, kept so a false
        #: confirmation can be healed by replaying the algebra in
        #: reverse (:meth:`unreconcile`)
        self._reconcile_stamps: dict[int, tuple] = {}
        #: outbound spawn ledger [(spawn_id, dst, fn, args, name)], kept
        #: only while a failure service with recovery is attached; popped
        #: per-destination by reconcile_failure for re-execution.
        self.ledger: list[tuple] = []

    # -- epoch machinery ------------------------------------------------- #

    @property
    def in_odd(self) -> bool:
        return self.present is self.odd

    # Cumulative counts for the baseline detectors and diagnostics: every
    # counter event moves one epoch, so ``even + odd`` is the running total.
    c_sent = property(lambda self: self.even.sent + self.odd.sent)
    c_delivered = property(
        lambda self: self.even.delivered + self.odd.delivered)
    c_received = property(lambda self: self.even.received + self.odd.received)
    c_completed = property(
        lambda self: self.even.completed + self.odd.completed)

    def _epoch_for(self, tag_odd: bool, gen: int) -> Epoch:
        """The epoch a follow-up count (delivered/completed) belongs to:
        odd only while the fold generation its message was stamped in is
        still current; after a fold, the matching counts live in even."""
        if tag_odd and gen == self.gen:
            return self.odd
        return self.even

    def advance_to_odd(self) -> None:
        """Even → odd transition (entering an allreduce, Fig. 7 line 7,
        or receiving an odd-tagged message, line 32)."""
        self.present = self.odd

    def fold_to_even(self) -> None:
        """Odd → even transition on allreduce exit (Fig. 7 line 10 via
        next_epoch): fold the odd epoch into the even one."""
        self.even.fold_from(self.odd)
        self.present = self.even
        self.gen += 1
        self.contributed = False
        self.cond.wake()

    def contribute(self) -> int:
        """Join a wave (Fig. 7 lines 6-8): enter the odd epoch, mark the
        even counters read, and return this image's term of the
        consistent-cut sum."""
        self.advance_to_odd()
        self.contributed = True
        return self.even.sent - self.even.completed

    def close_wave(self) -> None:
        """Leave a wave (Fig. 7 line 10): count it and fold odd into even."""
        self.rounds += 1
        self.fold_to_even()

    # -- counter events ---------------------------------------------------- #

    def on_send(self, dst: Optional[int] = None,
                cause: Optional[tuple] = None) -> tuple[bool, int, Optional[int]]:
        """Count an outgoing message; returns the (tag, generation, dst)
        stamp.  The tag travels on the wire; the stamp stays with the
        sender's ack callback.  Always counts, even toward a suspected
        peer: the transport guarantees such a send later resolves as
        failed, and :meth:`on_send_failed` removes exactly this count.

        ``cause`` is the receive stamp of the shipped-function activation
        issuing the send (None for main-program sends).  It determines
        the epoch tag causally — see the module docstring: a send is
        hidden in odd exactly when its cause is hidden, or when this
        image has already contributed its even counters to the wave in
        flight."""
        if cause is None:
            # Main-program send: always precedes this image's allreduce
            # contribution (the main blocks inside the detector once it
            # joins), and the line-4 wait forces its delivery before the
            # contribution is read — so it is inside the cut even when
            # an odd-tagged arrival has hoisted the image's phase.
            tag_odd = False
        elif cause[0] and cause[1] == self.gen:
            # Caused by a receive still hidden in the odd epoch: hide the
            # send with it; both fold into the visible cut together.
            tag_odd = True
        else:
            # The causing receive is visible in even.  Pre-contribution
            # the send joins it inside the cut (line 4 then holds this
            # image's read until the handler completes, so the count is
            # included); post-contribution it must hide until the fold.
            tag_odd = self.contributed
        epoch = self.odd if tag_odd else self.even
        epoch.sent += 1
        if dst is not None:
            self.sent_to[dst] = self.sent_to.get(dst, 0) + 1
        self.cond.wake()
        return (tag_odd, self.gen, dst)

    def on_delivered(self, stamp: tuple) -> None:
        tag_odd, gen, dst = stamp
        if dst is not None and dst in self.reconciled:
            return  # the pair was already subtracted wholesale
        self._epoch_for(tag_odd, gen).delivered += 1
        if dst is not None:
            self.delivered_to[dst] = self.delivered_to.get(dst, 0) + 1
        self.cond.wake()

    def on_send_failed(self, stamp: tuple) -> None:
        """A counted send was reported undeliverable (peer failed):
        remove its ``sent`` count so the frame can balance without the
        dead receiver's counters."""
        tag_odd, gen, dst = stamp
        self._epoch_for(tag_odd, gen).sent -= 1
        if dst is not None and dst in self.sent_to:
            self.sent_to[dst] -= 1
        self.machine.stats.incr("finish.sends_failed")
        self.cond.wake()

    def on_received(self, tag_odd: bool, src: Optional[int] = None
                    ) -> tuple[bool, int, Optional[int]]:
        """Count an incoming message; returns the receiver-side stamp to
        hand back to :meth:`on_completed` when its local work is done."""
        if src is not None and src in self.reconciled:
            return (tag_odd, self.gen, src)  # uncounted; completion skips too
        if tag_odd:
            self.advance_to_odd()
            self.odd.received += 1
        else:
            self.even.received += 1
        if src is not None:
            self.received_from[src] = self.received_from.get(src, 0) + 1
        self.cond.wake()
        return (tag_odd, self.gen, src)

    def on_completed(self, stamp: tuple) -> None:
        tag_odd, gen, src = stamp
        if src is not None and src in self.reconciled:
            return
        self._epoch_for(tag_odd, gen).completed += 1
        if src is not None:
            self.completed_from[src] = self.completed_from.get(src, 0) + 1
        self.cond.wake()

    # -- failure reconciliation ----------------------------------------- #

    def _shift_even(self, d: int, r: int, c: int) -> None:
        """Add a reconciliation stamp (``d`` delivered sends, ``r``
        receipts, ``c`` completions) to the even epoch."""
        even = self.even
        even.sent += d
        even.delivered += d
        even.received += r
        even.completed += c

    def reconcile_failure(self, dead: int) -> list[tuple]:
        """Remove every count paired with ``dead`` (see module docstring)
        and return the popped ledger entries destined to it, so the
        caller can re-execute the lost shipped functions.  Idempotent."""
        if dead in self.reconciled:
            return []
        self.reconciled.add(dead)
        # Collapse both epochs first so the subtraction has one target
        # and any in-progress detector wave restarts on the gen bump.
        self.fold_to_even()
        d = self.delivered_to.pop(dead, 0)
        r = self.received_from.pop(dead, 0)
        c = self.completed_from.pop(dead, 0)
        self._shift_even(-d, -r, -c)
        lost = [e for e in self.ledger if e[1] == dead]
        if lost:
            self.ledger = [e for e in self.ledger if e[1] != dead]
        self._reconcile_stamps[dead] = (d, r, c, tuple(lost))
        self.machine.stats.incr("finish.reconciled")
        self.cond.wake()
        return lost

    def unreconcile(self, peer: int) -> None:
        """Heal a false confirmation: replay :meth:`reconcile_failure`'s
        exact subtraction in reverse, so ``peer``'s counter pairs count
        again and its future stamps are no longer ignored.  No count is
        added twice (the stamps record exactly what was subtracted, and
        while reconciled no new pair with ``peer`` could accumulate) and
        none is lost (the transport heals *before* delivering the
        message that proved the peer alive).  Idempotent."""
        if peer not in self.reconciled:
            return
        self.reconciled.discard(peer)
        d, r, c, lost = self._reconcile_stamps.pop(peer, (0, 0, 0, ()))
        # Collapse to even first: the subtraction targeted the even
        # epoch, and the gen bump restarts any in-progress detector
        # wave — the membership it snapshotted just changed.
        self.fold_to_even()
        if d:
            self.delivered_to[peer] = self.delivered_to.get(peer, 0) + d
        if r:
            self.received_from[peer] = self.received_from.get(peer, 0) + r
        if c:
            self.completed_from[peer] = self.completed_from.get(peer, 0) + c
        self._shift_even(d, r, c)
        if lost:
            # The popped spawn-ledger entries go back on the books: the
            # peer is alive, so they were delivered (or quarantined and
            # flushed), not lost.
            self.ledger.extend(lost)
        self.machine.stats.incr("finish.unreconciled")
        self.cond.wake()

    def snapshot(self) -> dict:
        """Counter snapshot for liveness diagnostics (see
        :func:`stall_report`)."""
        even, odd = self.even.counts(), self.odd.counts()
        return {
            "image": self.world_rank,
            "key": self.key,
            "phase": "odd" if self.in_odd else "even",
            "even": even,
            "odd": odd,
            "cumulative": {name: n + odd[name] for name, n in even.items()},
            "rounds": self.rounds,
            "waiters": self.cond.waiting,
            "reconciled": sorted(self.reconciled),
            "ledger": len(self.ledger),
        }

    def __repr__(self) -> str:
        return (f"<FinishFrame {self.key}@{self.world_rank} "
                f"{'odd' if self.in_odd else 'even'} even={self.even} "
                f"odd={self.odd}>")


# --------------------------------------------------------------------- #
# Liveness diagnostics
# --------------------------------------------------------------------- #

def stall_report(machine, blocked: list) -> str:
    """The liveness watchdog's diagnostic: which images stalled, and the
    finish-counter evidence of *why* (typically ``sent > delivered`` on
    a frame whose counted message was lost by an unreliable network).

    Called by :meth:`Machine._liveness_check` when the event queue
    drains with main programs still blocked and the network has dropped
    traffic."""
    net = machine.network
    stats = machine.stats
    lines = [
        f"quiescence without completion at t={machine.sim.now:.6f}s: "
        f"blocked main programs {blocked}",
        f"  network: reliable={'on' if machine.params.reliable else 'OFF'} "
        f"drops={stats['net.drops']} ack_drops={stats['net.ack_drops']} "
        f"dups={stats['net.dups']} retransmits={stats['net.retransmits']}",
    ]
    for rec in net.lost[:8]:
        lines.append(f"  lost: {rec}")
    if len(net.lost) > 8:
        lines.append(f"  ... and {len(net.lost) - 8} more lost messages")
    for rec in net.unacked()[:8]:
        lines.append(f"  unacked: {rec}")
    dead = sorted(getattr(machine, "dead_images", ()))
    if dead:
        lines.append(f"  dead images: {dead}")
    confirmed = net.confirmed
    suspects = sorted(net.suspects - confirmed)
    if suspects:
        lines.append(f"  suspected images: {suspects}")
    if confirmed:
        lines.append(f"  confirmed dead images: {sorted(confirmed)}")
    service = getattr(machine, "failure", None)
    if service is not None and service.recovered:
        lines.append(
            "  recovered images: "
            + ", ".join(f"{r} (incarnation {service.incarnations[r]})"
                        for r in sorted(service.recovered)))
    parked = net.quarantine_depths()
    if parked:
        lines.append(f"  quarantined sends per suspect: {parked}")
    # Per-image pending handles: spawn replies still awaiting delivery
    # acks, and blocked event_wait calls.
    pending_spawns = net.pending_spawns()
    event_waits: dict[int, int] = {}
    for ev in machine._events.values():
        for rank, cond in ev._conds.items():
            if cond.waiting:
                event_waits[rank] = event_waits.get(rank, 0) + cond.waiting
    for rank in sorted(set(pending_spawns) | set(event_waits)):
        lines.append(
            f"  image {rank} pending handles: "
            f"spawn_replies={pending_spawns.get(rank, 0)} "
            f"event_waits={event_waits.get(rank, 0)}"
        )
    for (rank, key), frame in sorted(machine._frames.items()):
        interesting = (frame.cond.waiting > 0
                       or not frame.even.locally_quiet()
                       or not frame.odd.locally_quiet()
                       or frame.in_odd)
        if not interesting:
            continue
        lines.append(
            f"  image {rank} finish{key}: phase={'odd' if frame.in_odd else 'even'} "
            f"{frame.even.describe('even')} {frame.odd.describe('odd')} "
            f"rounds={frame.rounds} waiters={frame.cond.waiting}"
        )
    stalled_colls = [
        key for key, state in sorted(machine._coll_states.items())
        if getattr(getattr(state, "down", None), "done", True) is False
    ]
    if stalled_colls:
        lines.append(
            "  stalled collectives (rank, team, seq): "
            + ", ".join(map(str, stalled_colls[:8]))
            + (" ..." if len(stalled_colls) > 8 else "")
        )
    lines.append(
        "  hint: enable MachineParams.reliable to retransmit lost "
        "messages, or remove the FaultPlan"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Message-side helpers (used by spawn / copy_async / async collectives)
# --------------------------------------------------------------------- #

def frame_at(machine, world_rank: int, key: tuple) -> FinishFrame:
    """Get-or-create the frame for ``key`` on ``world_rank`` (frames are
    created lazily on message arrival, see module docstring)."""
    return machine.get_or_create_frame(world_rank, key)


def count_send(machine, world_rank: int, key: Optional[tuple],
               dst: Optional[int] = None,
               cause: Optional[tuple] = None) -> Optional[tuple]:
    """Count a message send at its initiator.  Returns the sender stamp
    ``(tag, generation)``: put ``stamp[0]`` on the wire, keep the stamp
    for :func:`count_delivered`.  None when not inside a finish.
    ``cause`` is the sending activation's receive stamp (see
    :meth:`FinishFrame.on_send`); pass ``activation.cause`` so handler
    sends are classified causally."""
    if key is None:
        return None
    return frame_at(machine, world_rank, key).on_send(dst, cause)


def wire_tag(stamp: Optional[tuple]) -> Optional[bool]:
    """The piggybacked epoch tag of a sender stamp."""
    return None if stamp is None else stamp[0]


def count_delivered(machine, world_rank: int, key: Optional[tuple],
                    stamp: Optional[tuple]) -> None:
    if key is not None and stamp is not None:
        frame_at(machine, world_rank, key).on_delivered(stamp)


def count_received(machine, world_rank: int, key: Optional[tuple],
                   tag: Optional[bool], src: Optional[int] = None
                   ) -> Optional[tuple]:
    """Count a message arrival; returns the receiver stamp to pass to
    :func:`count_completed` when its local work finishes.  ``src`` is
    the sending image, used for failure reconciliation."""
    if key is None:
        return None
    return frame_at(machine, world_rank, key).on_received(bool(tag), src)


def count_delivery_outcome(machine, world_rank: int, key: Optional[tuple],
                           stamp: Optional[tuple], fut) -> None:
    """Done-callback body for a counted send's ``delivered`` future:
    count it delivered on success, uncount the send if the transport
    reported the peer failed."""
    if key is None or stamp is None:
        return
    frame = frame_at(machine, world_rank, key)
    if fut.exception() is None:
        frame.on_delivered(stamp)
    else:
        frame.on_send_failed(stamp)


def count_completed(machine, world_rank: int, key: Optional[tuple],
                    recv_stamp: Optional[tuple]) -> None:
    if key is not None and recv_stamp is not None:
        frame_at(machine, world_rank, key).on_completed(recv_stamp)


# --------------------------------------------------------------------- #
# The block construct
# --------------------------------------------------------------------- #

def finish_begin(ctx, team: Optional[Team] = None
                 ) -> Generator[Any, Any, FinishFrame]:
    """Enter a finish block on ``team`` (default: the world team).

    Purely local: the collective synchronization happens at
    :func:`finish_end`.  Returns the frame (useful for diagnostics).
    """
    team = team if team is not None else ctx.team_world
    if ctx.rank not in team:
        raise FinishUsageError(
            f"image {ctx.rank} entered a finish on team {team.id} it does "
            "not belong to"
        )
    if ctx.activation.in_shipped_function:
        raise FinishUsageError(
            "finish blocks are collective and cannot be opened inside a "
            "shipped function (spawn from within an image-level finish "
            "instead)"
        )
    state = ctx.machine.image_state(ctx.rank)
    parent = state.finish_stack[-1] if state.finish_stack else None
    if parent is not None and not team.is_subset_of(parent.team):
        raise FinishUsageError(
            f"nested finish team {team.id} is not a subset of the "
            f"enclosing finish team {parent.team.id}"
        )
    seq = state.next_finish_seq(team.id)
    frame = frame_at(ctx.machine, ctx.rank, (team.id, seq))
    state.finish_stack.append(frame)
    ctx.machine.stats.incr("finish.blocks")
    return frame
    yield  # pragma: no cover - makes this a generator for API uniformity


def finish_end(ctx, detector: str = "epoch") -> Generator[Any, Any, int]:
    """Leave the current finish block: run global termination detection
    and block until it succeeds.  Returns the number of allreduce waves
    used (the Fig. 18 metric).

    ``detector`` names an algorithm in the
    :mod:`repro.core.termination` registry; the default ``"epoch"`` is
    the paper's.  With a failure service attached, ``"epoch"`` runs its
    fault-tolerant form ``"ft_epoch"``, and any other detector raises
    :class:`FinishUsageError` rather than wait on a dead image.
    """
    from repro.core import termination

    state = ctx.machine.image_state(ctx.rank)
    if not state.finish_stack:
        raise FinishUsageError(f"image {ctx.rank}: end finish without finish")
    frame = state.finish_stack[-1]
    algorithm = termination.get_detector(detector)
    if ctx.machine.failure is not None:
        # The other detectors would wait forever on a crashed member.
        if detector not in ("epoch", "ft_epoch"):
            raise FinishUsageError(
                f"termination detector {detector!r} is not fault-tolerant; "
                "with failure detection on use 'epoch' or 'ft_epoch'")
        algorithm = termination.ft_epoch_detector
    if ctx.machine.racecheck is not None:
        ctx.machine.racecheck.finish_enter(ctx.activation, frame.key)
    rounds = yield from algorithm(ctx, frame)
    state.finish_stack.pop()
    if ctx.machine.racecheck is not None:
        ctx.machine.racecheck.finish_exit(ctx.activation, frame.key)
    ctx.machine.stats.incr("finish.completed")
    ctx.machine.stats.incr("finish.rounds_total", rounds)
    return rounds
