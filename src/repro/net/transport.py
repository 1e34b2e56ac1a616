"""Message transport: NIC injection, wire latency, delivery, acks.

Cost model per message (see :class:`repro.net.topology.MachineParams`):

1. *Injection*: the sender's NIC is a serial resource.  A message starts
   injecting when the NIC frees up and occupies it for
   ``o_send + size / bandwidth``.  When injection ends, the **source buffer
   has been read** — this is the transport-level "local data completion"
   event the `cofence` construct builds on.
2. *Wire*: the message then spends ``topology.latency(src, dst)`` on the
   wire (optionally jittered, which can reorder messages between a pair —
   the termination detector must tolerate this).
3. *Delivery*: at arrival the receiver is charged ``o_recv`` and the
   message's ``on_deliver`` callback runs.
4. *Ack* (optional): a NIC-level acknowledgment arrives back at the sender
   ``ack_latency_factor * latency`` later — the transport-level "local
   operation completion" event.

Fault injection and reliability
-------------------------------
A :class:`~repro.net.faults.FaultPlan` turns the perfect interconnect
hostile: transmissions drop, duplicate, stall at the NIC, and reorder
beyond the baseline jitter.  With ``MachineParams.reliable`` the network
runs a reliable-delivery protocol above the faulty wire:

- every data transmission carries a per-``(src, dst)`` link sequence
  number;
- the receiver suppresses duplicates (``on_deliver`` and AM handlers run
  **exactly once** per message) and acknowledges every copy, so a lost
  ack is healed by the retransmission it provokes;
- the sender retransmits unacknowledged messages on an exponentially
  backed-off timer (``rto_safety`` × the message's nominal round trip,
  doubled by ``rto_backoff`` per attempt) and gives up with
  :class:`RetryExhaustedError` after ``retry_cap`` retries.

``DeliveryReceipt.delivered`` then means "the protocol-level ack for a
delivered copy reached the sender" — with a clean network this is the
same instant as the NIC-level ack of the unreliable model, so enabling
reliability does not move any completion time until faults actually
strike.  Retransmits, drops and duplicates are counted in ``Stats``
(``net.retransmits`` / ``net.drops`` / ``net.dups`` / ...) and surfaced
in the chrome trace as instant events.

One send gate, two wires
------------------------
:class:`Transport` owns the policy for a send whose destination is
suspected, confirmed dead or crashed: fail fast, park in the bounded
quarantine, or (best-effort probes) transmit anyway; it also owns the
membership sets and the single :class:`PeerFailedError` constructor.
:class:`Network` is the simulated wire under that gate;
:class:`~repro.backend.transport.ProcessTransport` is the real one
(pickle plus conduit) for the process backend.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.sim.engine import ChoicePoint
from repro.sim.tasks import Future

if TYPE_CHECKING:
    from repro.backend.substrate import Substrate
from repro.sim.trace import Stats
from repro.net.topology import MachineParams
from repro.net.faults import FaultPlan

#: Parents of the fallback random streams used when a :class:`Network`
#: is built with ``seed=None``.  Each seedless instance spawns its own
#: child, so two seedless networks in one process draw *different*
#: jitter/fault sequences (they used to share one fixed-seed stream).
_FALLBACK_JITTER_SS = np.random.SeedSequence(0xC0FFEE)
_FALLBACK_FAULT_SS = np.random.SeedSequence(0xFA117)


class RetryExhaustedError(RuntimeError):
    """The reliable transport gave up on a message: every transmission
    (original plus ``retry_cap`` retries) was lost.

    Attributes
    ----------
    link:
        The directed link ``(src, dst)`` that gave up.
    lseq:
        The message's per-link sequence number.
    attempts:
        Retransmissions performed before giving up (== ``retry_cap``).
    link_stats:
        Snapshot of per-link retransmit counts at failure time,
        ``{(src, dst): count}`` — the surrounding context for "was this
        link uniquely bad or is the whole fabric lossy?".
    """

    def __init__(self, message: str, link: tuple = (), lseq: int = -1,
                 attempts: int = 0,
                 link_stats: Optional[dict] = None):
        super().__init__(message)
        self.link = link
        self.lseq = lseq
        self.attempts = attempts
        self.link_stats = dict(link_stats or {})


class PeerFailedError(RuntimeError):
    """A send (or a pending retransmission) was abandoned because the
    destination image is crashed or suspected dead.  Carries the peer's
    rank so callers can reconcile instead of blind-retrying."""

    def __init__(self, message: str, peer: int = -1, suspected: bool = False):
        super().__init__(message)
        self.peer = peer
        #: True when abandoned on suspicion (failure detector), False
        #: when the transport observed the link down (confirmed crash).
        self.suspected = suspected


class Message:
    """One message in flight.  ``payload`` is arbitrary Python data whose
    simulated footprint is ``size`` bytes (we model cost, not encoding).

    ``seq`` is assigned by the :class:`Transport` that sends the message —
    a per-transport counter, so back-to-back simulations in one process
    number (and tie-break) their messages identically."""

    __slots__ = ("seq", "src", "dst", "size", "payload", "kind", "on_deliver")

    def __init__(self, src: int, dst: int, size: int, payload: Any,
                 kind: str = "msg",
                 on_deliver: Optional[Callable[["Message"], None]] = None):
        if size < 0:
            raise ValueError(f"negative message size {size}")
        self.seq: Optional[int] = None
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.kind = kind
        self.on_deliver = on_deliver

    def __repr__(self) -> str:
        seq = "?" if self.seq is None else self.seq
        return (f"<Message #{seq} {self.kind} {self.src}->{self.dst} "
                f"{self.size}B>")


class DeliveryReceipt:
    """Handles returned by :meth:`Transport.send`.

    Attributes
    ----------
    injected:
        Resolves when the sender NIC has finished reading the source
        buffer (transport local-data completion).
    delivered:
        Resolves (at the sender, after the ack round trip) when the
        message's deliver callback has run at the destination.  Only
        tracked when the send requested an ack.
    """

    __slots__ = ("message", "injected", "delivered")

    def __init__(self, message: Message, want_ack: bool):
        self.message = message
        self.injected = Future(f"msg{message.seq}.injected")
        self.delivered = Future(f"msg{message.seq}.delivered") if want_ack else None


class Transport:
    """The send gate both wires share: two-level membership, the
    quarantine and the :class:`PeerFailedError` policy.

    It decides what happens to a send whose destination is suspected,
    confirmed dead or crashed; a subclass supplies only the wire:

    - ``_send_now(msg, receipt, best_effort)`` puts one fresh send on the
      wire (``net.msgs`` is already counted — once per send, even when
      the send sat in quarantine first);
    - ``_peer_lost(image, crashed)`` does the wire's own extra work when
      ``image`` crashes (``crashed``) or is confirmed dead;
    - ``_awaiting_ack()`` yields the messages still waiting for a
      delivery ack (diagnostics).

    A wire that parks its own retransmission records in the quarantine
    (:class:`Network`) also supplies ``_resume(pend)`` and
    ``_fail_pending(pend, what)`` for them.
    """

    def __init__(self, sim: "Substrate", params: MachineParams,
                 stats: Optional[Stats] = None):
        self.sim = sim
        self.params = params
        self.stats = stats if stats is not None else Stats()
        #: per-transport message sequence (reproducible across back-to-back
        #: simulations in one process)
        self._msg_seq = itertools.count()
        #: short human-readable records of lost transmissions (bounded;
        #: the liveness watchdog quotes these in its diagnostic)
        self.lost: list[str] = []
        #: crashed images: their inbound and outbound links are down —
        #: sends toward them fail fast with :class:`PeerFailedError`
        self._dead: set[int] = set()
        #: suspected-dead images (shared with the failure detector;
        #: includes every confirmed image, so the send fast path needs
        #: only this one membership check).  Sends to a *merely*
        #: suspected peer park in the quarantine; sends to a confirmed
        #: one fail fast.
        self.suspects: set[int] = set()
        #: confirmed-dead images per the failure detector (always a
        #: subset of ``suspects``).  Unlike ``_dead`` — physical crash,
        #: links down — confirmation is a detector *verdict* and can be
        #: wrong; a delivery from a confirmed peer resurrects it.
        self.confirmed: set[int] = set()
        #: quarantined traffic per suspected destination: FIFO of
        #: ``(msg, receipt, pend)`` — ``pend`` is None for a fresh send,
        #: else a parked retransmission record of the wire — flushed in
        #: order on unsuspect, failed with PeerFailedError on confirmation
        self._quarantine: dict[int, list] = {}
        #: per-destination quarantine bound; the newest send overflows
        #: with PeerFailedError(suspected=True)
        self.quarantine_cap = 256
        #: liveness piggyback hook: called as ``fn(src, dst)`` whenever a
        #: delivery from ``src`` lands at ``dst`` — any delivered traffic
        #: doubles as a heartbeat for the failure detector
        self.on_delivery: Optional[Callable[[int, int], None]] = None

    def send(self, msg: Message, want_ack: bool = False,
             best_effort: bool = False) -> DeliveryReceipt:
        """Enqueue ``msg`` for transmission; returns its
        :class:`DeliveryReceipt`.

        Non-blocking: backpressure, if any, is the flow-control layer's
        job.  ``best_effort`` marks fire-and-forget traffic (failure
        detector heartbeats): it bypasses the quarantine, and on a
        reliable :class:`Network` the retransmission protocol too — a
        reliable heartbeat to a dead peer would retransmit forever.
        """
        msg.seq = next(self._msg_seq)
        receipt = DeliveryReceipt(msg, want_ack)
        self.stats.incr("net.msgs")
        dst = msg.dst
        if msg.src != dst and (dst in self.suspects or dst in self._dead):
            if dst in self._dead or dst in self.confirmed:
                # Fail fast: a typed error instead of transmitting into
                # a downed link.
                self._abandon(receipt, "send", dst)
                return receipt
            if not best_effort:
                # Merely suspected: the verdict may be wrong (straggler,
                # partition), so park instead of failing.
                self._park(msg, receipt)
                return receipt
            # Best-effort probes transmit even toward a suspect: they are
            # exactly what can prove the suspicion wrong.  Parking them
            # would make a mutual suspicion (a healed partition)
            # permanent.
        self._send_now(msg, receipt, best_effort)
        return receipt

    def _fail(self, receipt: DeliveryReceipt, what: str, peer: int,
              why: Optional[str] = None) -> None:
        """Count one send abandoned because ``peer`` failed and surface
        :class:`PeerFailedError` through its receipt (if anyone is
        watching).  ``suspected`` is True unless ``peer`` crashed."""
        self.stats.incr("net.peer_failed")
        delivered = receipt.delivered
        if delivered is not None and not delivered.done:
            crashed = peer in self._dead
            if why is None:
                why = f"image {peer} is " + ("crashed" if crashed
                                             else "confirmed dead")
            delivered.set_exception(PeerFailedError(
                f"{what} of {receipt.message!r} abandoned: {why}",
                peer=peer, suspected=not crashed))

    def _abandon(self, receipt: DeliveryReceipt, what: str, peer: int,
                 why: Optional[str] = None) -> None:
        """Fail a send that never reached the wire; its local completion
        still resolves."""
        self._fail(receipt, what, peer, why)
        self.sim.call_soon(receipt.injected.set_result, None)

    def _park(self, msg: Message, receipt: DeliveryReceipt,
              pend=None) -> None:
        queue = self._quarantine.setdefault(msg.dst, [])
        if pend is None and len(queue) >= self.quarantine_cap:
            # Bounded: the newest fresh send overflows with a typed
            # failure rather than the queue growing without limit while
            # the detector makes up its mind.  Parked retransmissions
            # are already in flight and always fit.
            self.stats.incr("net.quarantine_overflow")
            self._abandon(receipt, "send", msg.dst,
                          f"quarantine for suspected image {msg.dst} is "
                          f"full ({self.quarantine_cap})")
            return
        self.stats.incr("net.quarantined")
        queue.append((msg, receipt, pend))

    # ------------------------------------------------------------------ #
    # Two-level membership (driven by the failure detector)
    # ------------------------------------------------------------------ #

    def mark_suspect(self, image: int) -> None:
        """Level one: the detector suspects ``image``.  New sends toward
        it park in the quarantine; pending retransmissions park at their
        next timer."""
        self.suspects.add(image)

    def unmark_suspect(self, image: int) -> None:
        """The suspicion was wrong (a heartbeat or any delivery arrived):
        lift it and flush the quarantined traffic in FIFO order."""
        self.suspects.discard(image)
        queue = self._quarantine.pop(image, None)
        if not queue:
            return
        self.stats.incr("net.quarantine_flushed", len(queue))
        for msg, receipt, pend in queue:
            if pend is None:
                self._send_now(msg, receipt, False)
            else:
                self._resume(pend)

    def confirm_dead(self, image: int) -> None:
        """Level two: the detector confirms ``image`` dead.  Future
        sends fail fast and every quarantined message fails with
        :class:`PeerFailedError` — the signal the termination layer
        reconciles on."""
        if image in self.confirmed:
            return
        self.suspects.add(image)
        self.confirmed.add(image)
        self._fail_quarantined(image)
        self._peer_lost(image, crashed=False)

    def mark_dead(self, image: int) -> None:
        """Take ``image``'s links down (the network half of a fail-stop
        crash): its own parked sends die with it, traffic quarantined
        toward it fails, and future sends toward it fail with
        :class:`PeerFailedError`."""
        if image in self._dead:
            return
        self._dead.add(image)
        self.stats.incr("net.images_dead")
        for dst in list(self._quarantine):
            kept = [e for e in self._quarantine[dst] if e[0].src != image]
            if kept:
                self._quarantine[dst] = kept
            else:
                del self._quarantine[dst]
        self._fail_quarantined(image)
        self._peer_lost(image, crashed=True)

    def _fail_quarantined(self, image: int) -> None:
        for msg, receipt, pend in self._quarantine.pop(image, ()):
            if pend is None:
                self._abandon(receipt, "quarantined send", image)
            else:
                self._fail_pending(pend, "quarantined retransmission")

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def quarantine_depths(self) -> dict[int, int]:
        """Parked sends per suspected destination, ``{dst: count}``."""
        return {dst: len(q) for dst, q in sorted(self._quarantine.items())}

    def pending_spawns(self) -> dict[int, int]:
        """Spawns still awaiting their delivery ack, ``{src: count}``."""
        counts: dict[int, int] = {}
        for msg in self._awaiting_ack():
            if msg.kind == "spawn":
                counts[msg.src] = counts.get(msg.src, 0) + 1
        return counts

    def unacked(self) -> list[str]:
        """Human-readable descriptions of sends still awaiting their
        delivery ack."""
        return [f"{m.kind} #{m.seq} {m.src}->{m.dst}"
                for m in self._awaiting_ack()]


class _PendingSend:
    """Sender-side state of one reliably-sent message."""

    __slots__ = ("msg", "receipt", "link", "lseq", "attempt", "acked",
                 "timer", "rto0")

    def __init__(self, msg: Message, receipt: DeliveryReceipt,
                 link: tuple, lseq: int, rto0: float):
        self.msg = msg
        self.receipt = receipt
        self.link = link
        self.lseq = lseq
        self.attempt = 0          # retransmissions performed so far
        self.acked = False
        self.timer = None
        self.rto0 = rto0


class _RxState:
    """Receiver-side duplicate suppression for one directed link: all
    link seqs below ``upto`` were delivered; ``seen`` holds the
    out-of-order ones above it."""

    __slots__ = ("upto", "seen")

    def __init__(self) -> None:
        self.upto = 0
        self.seen: set[int] = set()

    def record(self, lseq: int) -> bool:
        """Mark ``lseq`` delivered; True if it was already seen."""
        if lseq < self.upto or lseq in self.seen:
            return True
        self.seen.add(lseq)
        while self.upto in self.seen:
            self.seen.discard(self.upto)
            self.upto += 1
        return False


class Network(Transport):
    """The simulated interconnect: owns per-image NIC state and delivers
    messages.

    Parameters
    ----------
    sim:
        The execution :class:`~repro.backend.substrate.Substrate` the
        cost model schedules against — the deterministic simulator in
        practice (the process backend substitutes
        :class:`~repro.backend.transport.ProcessTransport` for this
        whole class rather than running the simulated wire on real
        time).
    faults:
        Optional :class:`FaultPlan` consulted on every transmission and
        acknowledgment.
    seed:
        Fallback seed for internally-created random streams (jitter,
        unbound fault plans); a machine passes its master seed so every
        stream varies with ``seed=`` as documented.
    """

    def __init__(self, sim: "Substrate", params: MachineParams,
                 stats: Optional[Stats] = None,
                 jitter_rng: Optional[np.random.Generator] = None,
                 tracer=None,
                 faults: Optional[FaultPlan] = None,
                 seed: Optional[int] = None):
        super().__init__(sim, params, stats)
        self.tracer = tracer
        self._nic_free_at = np.zeros(params.n_images, dtype=np.float64)
        if params.jitter > 0.0 and jitter_rng is None:
            jitter_rng = np.random.default_rng(
                _FALLBACK_JITTER_SS.spawn(1)[0] if seed is None
                else np.random.SeedSequence(seed))
        self._jitter_rng = jitter_rng
        self.faults = faults
        if faults is not None and faults.seed is None and faults._rng is None:
            faults.bind(np.random.default_rng(
                _FALLBACK_FAULT_SS.spawn(1)[0] if seed is None
                else np.random.SeedSequence(seed)))
        # reliable-protocol state
        self._tx_next: dict[tuple, int] = {}
        self._tx_pending: dict[tuple, _PendingSend] = {}
        self._rx_states: dict[tuple, _RxState] = {}
        #: open delivery batches keyed by ``(src, dst, delivery_time)`` —
        #: back-to-back arrivals landing at the same instant on a link
        #: share one simulator event (see _schedule_delivery)
        self._arrivals: dict[tuple, list] = {}
        #: per-directed-link retransmission counts (RetryExhaustedError
        #: snapshots these; also a chaos diagnostic)
        self.link_retransmits: dict[tuple, int] = {}
        #: crash trigger hook: called as ``fn(image)`` (via call_soon, so
        #: the triggering send completes first) when the fault plan's
        #: ``crash_after_n_sends`` threshold is reached
        self.on_crash: Optional[Callable[[int], None]] = None
        #: schedule-exploration hook (DESIGN.md §10): an object with
        #: ``choose(ChoicePoint) -> int`` plus ``lag_steps``/``lag_slack``
        #: attributes.  When installed, every remote transmission's extra
        #: delivery lag becomes an explicit recorded choice (and the
        #: jitter rng is bypassed); None = baseline timing, untouched.
        self.schedule_source = None

    # ------------------------------------------------------------------ #
    # The wire
    # ------------------------------------------------------------------ #

    def _send_now(self, msg: Message, receipt: DeliveryReceipt,
                  best_effort: bool) -> None:
        """Inject and transmit one fresh send.  Reliability is a
        per-message policy decided here: a reliable send gets a link seq
        and a pending record that retransmits until acked."""
        inject_end = self._inject(msg)

        self.stats.incr("net.bytes", msg.size)
        self.stats.incr(f"net.kind.{msg.kind}")

        self.sim.schedule_at(inject_end, receipt.injected.set_result, None)

        f = self.faults
        scripted = (f.take_scripted_drop(msg.kind) if f is not None else False)
        if f is not None and f.count_send(msg.src) and self.on_crash is not None:
            # The send that crosses the crash_after_n_sends threshold is
            # the image's last act: it completes, then the crash fires.
            self.sim.call_soon(self.on_crash, msg.src)
        pend = None
        if self.params.reliable and not best_effort:
            link = (msg.src, msg.dst)
            lseq = self._tx_next.get(link, 0)
            self._tx_next[link] = lseq + 1
            pend = _PendingSend(msg, receipt, link, lseq,
                                self._nominal_rto(msg))
            self._tx_pending[(link, lseq)] = pend
        self._transmit(msg, receipt, pend, inject_end, scripted)

    def _inject(self, msg: Message) -> float:
        """Occupy the source NIC for one transmission; returns the time
        injection ends (source buffer fully read)."""
        p = self.params
        start = max(self.sim.now, float(self._nic_free_at[msg.src]))
        cost = p.o_send + p.transfer_time(msg.size)
        if self.faults is not None:
            released = self.faults.release_time(msg.src, start)
            if released > start:
                self.stats.incr("net.nic_stalls")
                start = released
            if self.faults.stragglers:
                # A straggling image's NIC serves slower: its heartbeats
                # and data sends alike stretch by the service factor.
                cost *= self.faults.service_factor(msg.src, start)
        inject_end = start + cost
        self._nic_free_at[msg.src] = inject_end
        return inject_end

    def _wire_latency(self, msg: Message) -> float:
        lat = self.params.topology.latency(msg.src, msg.dst)
        source = self.schedule_source
        if source is not None:
            # Controlled mode: the wire's nondeterminism is an explicit
            # choice among discrete lag steps instead of a jitter draw.
            # Step 0 is the nominal latency (baseline), step k adds
            # ``lag_slack * k / (steps - 1)`` of the latency on top —
            # enough spread to reorder back-to-back messages on a link.
            if msg.src == msg.dst:
                return lat  # loopback models memory, never reorders
            steps = source.lag_steps
            if steps <= 1:
                return lat
            # Every non-loopback lag is branchable: the latency choice
            # is made at send time, before any later message that could
            # overtake this one even exists, so "nothing else in flight"
            # proves nothing about commutativity.
            point = ChoicePoint(
                "lag", steps,
                key=f"{msg.kind}:{msg.src}->{msg.dst}")
            k = source.choose(point)
            if not 0 <= k < steps:
                raise ValueError(
                    f"schedule source chose lag step {k} of {steps}")
            return lat * (1.0 + source.lag_slack * k / (steps - 1))
        if self.params.jitter > 0.0:
            lat *= 1.0 + self.params.jitter * float(
                self._jitter_rng.uniform(-1.0, 1.0))
        return lat

    def _transmit(self, msg: Message, receipt: DeliveryReceipt,
                  pend: Optional[_PendingSend], inject_end: float,
                  scripted: bool) -> None:
        """Put one copy of ``msg`` on the (possibly faulty) wire.  With
        ``pend`` (a reliable send) the copy is also covered by a
        retransmission timer."""
        lat = self._wire_latency(msg)
        f = self.faults
        extra = 0.0
        dropped = duplicated = False
        if f is not None and msg.src != msg.dst:
            extra = f.extra_latency(lat)
            if scripted or f.roll_drop(msg.src, msg.dst):
                dropped = True
            elif f.gray and f.link_down(msg.src, msg.dst, inject_end):
                # Partition / flap window: the wire itself is severed.
                # Pure in time — no rng draw, so scripting a partition
                # never shifts the drop/duplicate decision stream.
                self.stats.incr("net.link_down_drops")
                dropped = True
            else:
                duplicated = f.roll_duplicate()
        if dropped:
            self._record_drop(msg, inject_end)
        else:
            arrive = inject_end + lat + extra
            if self.tracer is not None:
                args = {"bytes": msg.size}
                if pend is not None:
                    args["attempt"] = pend.attempt
                self.tracer.flow(msg.kind, msg.src, inject_end, msg.dst,
                                 arrive, args=args)
            self._schedule_delivery(msg.src, msg.dst,
                                    arrive + self.params.o_recv,
                                    (msg, receipt, pend, lat))
            if duplicated:
                # Unreliable sends have no receiver-side suppression: the
                # handler really runs twice (chaos mode).
                self.stats.incr("net.dups")
                arrive2 = arrive + f.duplicate_lag(lat)
                self._schedule_delivery(msg.src, msg.dst,
                                        arrive2 + self.params.o_recv,
                                        (msg, receipt, pend, lat))
        if pend is not None:
            rto = pend.rto0 * (self.params.rto_backoff ** pend.attempt)
            pend.timer = self.sim.schedule_at(inject_end + rto,
                                              self._retransmit, pend)

    def _schedule_delivery(self, src: int, dst: int, t: float,
                           copy: tuple) -> None:
        """Schedule delivery of one copy at time ``t``, coalescing with
        any delivery already due at the same instant on the same
        directed link.  With a serial NIC and ``o_send > 0`` same-instant
        arrivals essentially never happen, but zero-overhead
        configurations produce long trains of them; one shared event then
        replaces N heap entries.  Batch order is scheduling order, which
        is exactly the (time, seq) order separate events would fire in."""
        key = (src, dst, t)
        batch = self._arrivals.get(key)
        if batch is not None:
            batch.append(copy)
            self.stats.incr("net.deliveries_coalesced")
            return
        self._arrivals[key] = batch = [copy]
        self.sim.schedule_at(t, self._run_delivery_batch, key, batch)

    def _run_delivery_batch(self, key: tuple, batch: list) -> None:
        del self._arrivals[key]
        if self._dead and (key[0] in self._dead or key[1] in self._dead):
            # The link went down while these copies were in flight:
            # a dead source's packets are discarded, a dead destination
            # processes nothing.
            self.stats.incr("net.dead_link_discards", len(batch))
            if key[1] in self._dead and key[0] not in self._dead:
                # A live sender's unreliable receipts must fail, not
                # dangle: only a reliable send has a retransmit timer
                # that reaches the same verdict on its own.
                for msg, receipt, pend, _ in batch:
                    if (pend is None and receipt.delivered is not None
                            and not receipt.delivered.done):
                        self._fail(receipt, "delivery", key[1],
                                   f"image {key[1]} crashed with the "
                                   "message in flight")
            return
        if self.on_delivery is not None:
            self.on_delivery(key[0], key[1])
        deliver = self._deliver
        for copy in batch:
            deliver(*copy)

    def _deliver(self, msg: Message, receipt: DeliveryReceipt,
                 pend: Optional[_PendingSend], lat: float) -> None:
        if pend is None:
            if msg.on_deliver is not None:
                msg.on_deliver(msg)
            if receipt.delivered is not None and not receipt.delivered.done:
                ack_delay = self.params.ack_latency_factor * lat
                self.sim.schedule(ack_delay, self._resolve_delivered, receipt)
            return
        rx = self._rx_states.get(pend.link)
        if rx is None:
            rx = self._rx_states[pend.link] = _RxState()
        if rx.record(pend.lseq):
            # Duplicate copy (injected dup or retransmission overlap):
            # suppress the handler but re-ack, healing a lost ack.
            self.stats.incr("net.dups_suppressed")
        elif msg.on_deliver is not None:
            msg.on_deliver(msg)
        f = self.faults
        if f is not None and msg.src != msg.dst:
            if f.roll_ack_drop(msg.dst, msg.src):
                self.stats.incr("net.ack_drops")
                return
            if f.gray and f.link_down(msg.dst, msg.src, self.sim.now):
                # The reverse link is severed: the ack is lost on the wire.
                self.stats.incr("net.link_down_drops")
                self.stats.incr("net.ack_drops")
                return
        ack_delay = self.params.ack_latency_factor * lat
        self.sim.schedule(ack_delay, self._on_ack, pend)

    @staticmethod
    def _resolve_delivered(receipt: DeliveryReceipt) -> None:
        if not receipt.delivered.done:
            receipt.delivered.set_result(None)

    def _record_drop(self, msg: Message, t: float) -> None:
        self.stats.incr("net.drops")
        self.stats.incr(f"net.drops.{msg.kind}")
        if len(self.lost) < 64:
            self.lost.append(
                f"t={t:.6f}s {msg.kind} #{msg.seq} {msg.src}->{msg.dst}")
        if self.tracer is not None:
            self.tracer.instant(msg.src, f"drop {msg.kind}", t,
                                args={"dst": msg.dst, "seq": msg.seq})

    # ------------------------------------------------------------------ #
    # Reliable-protocol records
    # ------------------------------------------------------------------ #

    def _nominal_rto(self, msg: Message) -> float:
        """First retransmission timeout: ``rto_safety`` × the message's
        nominal (jitter-free) round trip."""
        p = self.params
        lat = p.topology.latency(msg.src, msg.dst)
        rtt = (p.o_send + p.transfer_time(msg.size) + lat + p.o_recv
               + p.ack_latency_factor * lat)
        return p.rto_safety * rtt

    def _retransmit(self, pend: _PendingSend) -> None:
        if pend.acked:
            return
        msg = pend.msg
        if msg.src in self._dead:
            # The sender crashed between timer arm and fire: its pending
            # protocol state dies with it.
            self._tx_pending.pop((pend.link, pend.lseq), None)
            return
        if msg.dst in self._dead or msg.dst in self.confirmed:
            # Stop retrying into a downed link and surface a typed
            # failure instead of spinning to the cap.
            self._fail_pending(pend, "retransmission")
            return
        if msg.dst in self.suspects:
            # Merely suspected: park the pending message instead of
            # burning retries into a possibly-slow peer.  The timer is
            # not re-armed; unsuspecting re-injects, confirmation fails.
            pend.timer = None
            self._park(msg, pend.receipt, pend)
            return
        pend.attempt += 1
        p = self.params
        if pend.attempt > p.retry_cap:
            self._tx_pending.pop((pend.link, pend.lseq), None)
            raise RetryExhaustedError(
                f"reliable transport gave up on {msg!r} after "
                f"{p.retry_cap} retransmissions (link {pend.link}, link "
                f"seq {pend.lseq}, t={self.sim.now:.6f}s): every copy "
                "was lost — raise MachineParams.retry_cap or lower the "
                "FaultPlan drop rate",
                link=pend.link, lseq=pend.lseq, attempts=p.retry_cap,
                link_stats=self.link_retransmits,
            )
        self.stats.incr("net.retransmits")
        self.stats.incr(f"net.retransmits.{msg.kind}")
        self.link_retransmits[pend.link] = (
            self.link_retransmits.get(pend.link, 0) + 1)
        if self.tracer is not None:
            self.tracer.instant(msg.src, f"rexmit {msg.kind}", self.sim.now,
                                args={"dst": msg.dst,
                                      "attempt": pend.attempt})
        self._resume(pend)

    def _resume(self, pend: _PendingSend) -> None:
        """Re-inject a pending message (a retransmission, or a parked one
        flushed from the quarantine)."""
        if not pend.acked:
            self._transmit(pend.msg, pend.receipt, pend,
                           self._inject(pend.msg), False)

    def _on_ack(self, pend: _PendingSend) -> None:
        if pend.acked:
            return  # a re-ack of a suppressed duplicate
        if pend.msg.dst in self._dead:
            return  # the acking image crashed while the ack was in flight
        pend.acked = True
        self._tx_pending.pop((pend.link, pend.lseq), None)
        if pend.timer is not None:
            self.sim.cancel(pend.timer)
            pend.timer = None
        self.stats.incr("net.acks")
        if pend.receipt.delivered is not None:
            pend.receipt.delivered.set_result(None)

    def _fail_pending(self, pend: _PendingSend, what: str) -> None:
        """Abandon a reliably-sent message: pop protocol state, stop the
        timer, and fail its receipt."""
        if pend.acked:
            return
        self._tx_pending.pop((pend.link, pend.lseq), None)
        if pend.timer is not None:
            self.sim.cancel(pend.timer)
            pend.timer = None
        self._fail(pend.receipt, what, pend.msg.dst)

    def _peer_lost(self, image: int, crashed: bool) -> None:
        # A crashed image's own unacked sends die with it (cancel the
        # timers now; delivery batches already in flight are discarded by
        # _run_delivery_batch).  Sends *to* it are left to fail at their
        # next retransmission timer — the moment the transport would
        # have touched the downed link.
        if not crashed:
            return
        for key, pend in list(self._tx_pending.items()):
            if pend.msg.src == image:
                if pend.timer is not None:
                    self.sim.cancel(pend.timer)
                    pend.timer = None
                del self._tx_pending[key]

    # ------------------------------------------------------------------ #

    def _awaiting_ack(self):
        return (p.msg for p in self._tx_pending.values())

    def nic_busy_until(self, image: int) -> float:
        """When the image's NIC injection port next frees (diagnostic)."""
        return float(self._nic_free_at[image])
