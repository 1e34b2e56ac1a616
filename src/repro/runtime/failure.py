"""Image failures: gray-failure-tolerant detection and reporting.

The failure model (DESIGN §11-§12) distinguishes *fail-stop* crashes —
an image halts instantly, loses its memory, never sends another byte —
from *gray* failures: stragglers and partitions that merely look like
crashes.  Survivors learn about either through a heartbeat failure
detector, not simulator omniscience, so the runtime must survive the
detector being wrong.

Two-level membership
--------------------
Suspicion comes in two levels with different commitments:

- ``SUSPECTED`` — the detector stopped hearing from the peer.  Cheap
  and revocable: sends toward the peer park in the transport's
  quarantine, nothing is reconciled.  *Any* delivery from the peer
  lifts the suspicion, bumps the peer's incarnation number, and flushes
  the quarantine.
- ``CONFIRMED_DEAD`` — the silence outlasted ``confirm_timeout``.
  Expensive and (almost) irreversible: quarantined sends fail with
  :class:`~repro.net.transport.PeerFailedError`, finish frames
  reconcile (exact-subtraction of the peer's counter stamps), and with
  ``recover=True`` lost shipped functions re-execute on survivors.  If
  a confirmed peer nevertheless delivers (an extreme gray failure), it
  is *resurrected*: the reconciliation algebra replays in reverse
  (:meth:`repro.core.finish.FinishFrame.unreconcile`).

Both sets are shared, monotonic-per-transition views modelling a
replicated membership service (in the spirit of ULFM's agreement);
``confirmed`` is always a subset of ``suspects`` so the transport's
fast path pays one membership check, not two.

Hierarchical monitoring (DESIGN §13)
------------------------------------
Monitoring is *not* all-pairs.  Live images are arranged in a radix
tree (``FailureConfig.tree_radix``) over the current non-confirmed
membership, and each image heartbeats and watches only its tree
neighbours — parent plus up to ``tree_radix`` children, so one period
costs O(p) messages total instead of O(p²) and every observer tracks
O(1) peers.  Suspicion and confirmation publish into the shared
membership sets, so detection latency is still one observer's timeout,
not a tree traversal.  When a confirmation (or resurrection) changes
membership, the tree is rebuilt over the survivors: a dead interior
node's children are re-adopted automatically because positions shift.
A *falsely confirmed* image that is in fact alive drops out of the
tree, so it keeps probing the surrogate root (the lowest live rank) —
one delivered probe is all a resurrection takes.

Detectors
---------
Every image runs a detector task each ``period`` (stretched by any
straggler factor on the image itself).  Two suspicion rules are
available:

- ``detector="timeout"``: suspect after ``timeout`` of silence — the
  classic rule, which flaps against a straggler whose service interval
  exceeds the timeout.
- ``detector="phi"``: Hayashibara-style phi-accrual — each observer
  keeps a window of per-peer delivery inter-arrival times and suspects
  when ``phi = -log10(P(a delivery this late or later))`` crosses
  ``phi_suspect``.  The window adapts to a straggler's degraded cadence,
  so sustained slowness stops triggering once observed; fewer than 4
  samples falls back to the timeout rule.

*Confirmation* is time-based for both rules — ``elapsed >
confirm_timeout`` — because accrued improbability must never be allowed
to confirm (and reconcile) a peer that is merely slow; only hard
silence may.  Detection-quality metrics (false-suspicion count,
suspect/confirm latency for real crashes, time-to-unsuspect) accumulate
on the service for the ``grayfail`` harness experiment.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.net.active_messages import AMCategory
from repro.sim.tasks import Delay, Task


class ImageFailureError(RuntimeError):
    """One or more images failed inside a finish that cannot (or was not
    asked to) recover.

    Attributes
    ----------
    dead : tuple[int, ...]
        The failed world ranks, as known when the error was built.
    epochs : dict
        Snapshot of the non-quiet finish frames' counters at detection
        time (``(rank, key) -> FinishFrame.snapshot()``).
    orphans : dict[int, int]
        Per-dead-image count of counted sends whose shipped work was
        orphaned by the crash.
    detected_at : float
        Simulated time at which the failure surfaced.
    """

    def __init__(self, message: str, dead: tuple = (), epochs=None,
                 orphans=None, detected_at: float = 0.0):
        super().__init__(message)
        self.dead = tuple(dead)
        self.epochs = dict(epochs or {})
        self.orphans = dict(orphans or {})
        self.detected_at = detected_at


def build_failure_error(machine, dead=None, reason: str = "image failure"
                        ) -> ImageFailureError:
    """Assemble a structured :class:`ImageFailureError` from the
    machine's current state (works with or without a failure service)."""
    service = machine.failure
    if dead is None:
        dead = set(machine.dead_images)
        if service is not None:
            dead |= service.confirmed
    dead = tuple(sorted(dead))
    epochs = {}
    for (rank, key), frame in sorted(machine._frames.items()):
        if (not frame.even.locally_quiet() or not frame.odd.locally_quiet()
                or frame.cond.waiting):
            epochs[(rank, key)] = frame.snapshot()
    if service is not None and service.orphans:
        orphans = dict(service.orphans)
    else:
        orphans = {}
        for d in dead:
            n = sum(frame.sent_to.get(d, 0)
                    for (rank, _k), frame in machine._frames.items()
                    if rank not in dead)
            if n:
                orphans[d] = n
    msg = (f"{reason}: image(s) {list(dead)} failed at "
           f"t={machine.sim.now:.6f}s; "
           f"orphaned sends {orphans if orphans else '{}'} "
           f"({len(epochs)} finish frame(s) not quiet)")
    return ImageFailureError(msg, dead=dead, epochs=epochs, orphans=orphans,
                             detected_at=machine.sim.now)


class FailureConfig:
    """Tuning for the heartbeat failure detector.

    ``period``          — heartbeat interval per image (seconds).
    ``timeout``         — silence threshold for suspicion under the
                          ``"timeout"`` rule (and the phi cold-start
                          fallback); default 10 periods.
    ``recover``         — re-execute lost shipped functions on survivors
                          instead of raising :class:`ImageFailureError`.
    ``detector``        — suspicion rule: ``"timeout"`` or ``"phi"``.
    ``confirm_timeout`` — silence threshold for CONFIRMED_DEAD (both
                          rules); default 3 timeouts.  Must exceed
                          ``timeout`` so confirmation never races
                          suspicion.
    ``phi_suspect``     — phi threshold for suspicion (``"phi"`` only);
                          phi = 8 means the silence had probability
                          1e-8 under the observed arrival distribution.
    ``window``          — per-(observer, peer) inter-arrival samples
                          kept for the phi estimate.
    ``tree_radix``      — fan-out of the hierarchical monitoring tree;
                          each image heartbeats/watches its parent and
                          up to this many children (never all pairs).
    """

    __slots__ = ("period", "timeout", "recover", "detector",
                 "confirm_timeout", "phi_suspect", "window", "tree_radix")

    def __init__(self, period: float = 5e-5,
                 timeout: Optional[float] = None,
                 recover: bool = False,
                 detector: str = "timeout",
                 confirm_timeout: Optional[float] = None,
                 phi_suspect: float = 8.0,
                 window: int = 100,
                 tree_radix: int = 4):
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive, got {period}")
        if timeout is None:
            timeout = 10.0 * period
        if timeout <= period:
            raise ValueError(
                f"timeout ({timeout}) must exceed the heartbeat period "
                f"({period}) or every image is suspected instantly"
            )
        if detector not in ("timeout", "phi"):
            raise ValueError(
                f"detector must be 'timeout' or 'phi', got {detector!r}")
        if confirm_timeout is None:
            confirm_timeout = 3.0 * timeout
        if confirm_timeout <= timeout:
            raise ValueError(
                f"confirm_timeout ({confirm_timeout}) must exceed the "
                f"suspicion timeout ({timeout}): confirmation is the "
                "irreversible level"
            )
        if phi_suspect <= 0:
            raise ValueError(
                f"phi_suspect must be positive, got {phi_suspect}")
        if window < 4:
            raise ValueError(
                f"phi needs a window of at least 4 samples, got {window}")
        if tree_radix < 2:
            raise ValueError(
                f"monitoring tree radix must be at least 2, got {tree_radix}")
        self.period = period
        self.timeout = timeout
        self.recover = recover
        self.detector = detector
        self.confirm_timeout = confirm_timeout
        self.phi_suspect = phi_suspect
        self.window = int(window)
        self.tree_radix = int(tree_radix)

    def __repr__(self) -> str:
        return (f"FailureConfig(period={self.period}, timeout={self.timeout}, "
                f"recover={self.recover}, detector={self.detector!r}, "
                f"confirm_timeout={self.confirm_timeout})")


_HB = "fail.hb"
_MEMBER = "fail.member"


class _SparseCounters(dict):
    """Per-rank int counters that read 0 for untouched ranks without
    ever storing them — ``c[r] += 1`` materializes only rank ``r``."""

    __slots__ = ()

    def __missing__(self, key):
        return 0


class FailureService:
    """Per-machine failure detection (one detector task per image,
    heartbeating over a hierarchical monitoring tree)."""

    def __init__(self, machine, config: FailureConfig):
        self.machine = machine
        self.config = config
        self.recover = config.recover
        n = machine.n_images
        self.n_images = n
        # Shared with the transport: sends to merely-suspected peers
        # park in its quarantine, sends to confirmed peers fail fast.
        self.suspects: set[int] = machine.network.suspects
        self.confirmed: set[int] = machine.network.confirmed
        #: membership generation; bumped on every transition (suspect,
        #: unsuspect, confirm, resurrect) so detector waves snapshotting
        #: it can notice a mid-wave change
        self.gen = 0
        #: per-image incarnation numbers: bumped each time an image
        #: returns from wrongful suspicion/confirmation, so stale state
        #: about the previous "life" is distinguishable.  Sparse: only
        #: ranks that ever recovered occupy memory.
        self.incarnations = _SparseCounters()
        #: images that were suspected (or confirmed) and came back
        self.recovered: set[int] = set()
        #: per-dead-image counted-send orphan totals (filled at reconcile)
        self.orphans: dict[int, int] = {}
        # last-heard clocks, sparse per observer: entries exist only for
        # the observer's monitored tree neighbours, seeded on the first
        # detector tick that watches the pair (never an n×n matrix)
        self._last_heard: dict[int, dict[int, float]] = {}
        # phi-accrual inter-arrival windows, lazily created per
        # (observer, peer) directed pair
        self._phi = config.detector == "phi"
        self._intervals: dict[tuple, deque] = {}
        # Monitoring tree over the non-confirmed membership; rebuilt
        # lazily whenever `gen` moves (see monitored_peers).  While no
        # image is confirmed dead the membership is the identity map
        # (pos == rank) and costs nothing; the order/pos tables are only
        # materialized once a confirmation punches a hole in it.
        self._alive_order: Optional[list[int]] = None
        self._alive_pos: Optional[dict[int, int]] = None
        self._monitor_cache: dict[int, frozenset] = {}
        self._monitor_gen = -1
        #: when each currently-suspected image was suspected
        self.suspected_at: dict[int, float] = {}
        # --- detector-quality metrics (grayfail experiment) ---------- #
        #: crash -> suspicion lag per real crash detected
        self.suspect_latency: list[float] = []
        #: crash -> confirmation lag per real crash confirmed
        self.confirm_latency: list[float] = []
        #: suspicion -> unsuspicion lag per false suspicion healed
        self.time_to_unsuspect: list[float] = []
        self._tasks: list[Task] = []
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        machine = self.machine
        if self.recover:
            # Activate the spawn idempotency registry so every execution
            # is recorded (see repro.core.spawn).
            machine.scratch.setdefault("spawn.executed_ids", {})
        machine.network.on_delivery = self._on_delivery
        machine.am.ensure_registered(_HB, _heartbeat_handler)
        machine.am.ensure_registered(_MEMBER, _make_member_handler(machine))
        # Detector tasks run only for ranks this machine hosts: all of
        # them under the simulator, exactly one in a process-mode worker
        # (each worker observes for its own rank; verdicts propagate by
        # membership gossip instead of the sim's shared sets).
        local = list(machine.local_ranks)
        for rank in local:
            task = Task(machine.sim, self._detector(rank),
                        name=f"fail.detect@{rank}", owner=rank)
            self._tasks.append(task)
        machine.stats.incr("fail.detectors", len(local))

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for task in self._tasks:
            task.kill()

    def check_stop(self) -> None:
        """Stop heartbeating once every main program is finished or
        belongs to a dead/confirmed image; otherwise the periodic timers
        would keep the event queue alive forever.  Merely-suspected
        owners do NOT count as finished: a straggler's main is still
        running, and stopping the detectors would strand it suspected
        forever (no heartbeat could ever unsuspect it)."""
        if self._stopped:
            return
        machine = self.machine
        if machine.backend != "sim":
            # A process-mode worker must keep heartbeating after its own
            # main finishes — its peers may still be running (and its
            # silence would read as a crash).  The wall-clock loop has no
            # drained-queue liveness problem; the coordinator's shutdown
            # broadcast ends the process.
            return
        for task in machine._main_tasks:
            if task.done_future.done:
                continue
            owner = task.owner
            if owner is not None and (owner in machine.dead_images
                                      or owner in self.confirmed):
                continue
            return
        self.stop()

    def notify_death(self, rank: int) -> None:
        """The simulator killed ``rank`` (ground truth, *not* published
        to survivors — suspicion still takes a detector timeout)."""
        self.check_stop()

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #

    # -- hierarchical monitoring tree ---------------------------------- #

    def _rebuild_membership(self) -> None:
        if self.confirmed:
            order = [r for r in range(self.n_images)
                     if r not in self.confirmed]
            self._alive_order = order
            self._alive_pos = {r: i for i, r in enumerate(order)}
        else:
            # Identity membership: pos == rank, no tables needed.
            self._alive_order = None
            self._alive_pos = None
        self._monitor_cache.clear()
        self._monitor_gen = self.gen

    def monitored_peers(self, rank: int) -> frozenset:
        """World ranks ``rank`` heartbeats and watches: its parent and
        children in the ``tree_radix``-ary monitoring tree over the
        current non-confirmed membership.  A rank that is itself
        confirmed (wrongly — it is calling this, so it is alive) gets
        the surrogate root so it can announce its own resurrection."""
        if self._monitor_gen != self.gen:
            self._rebuild_membership()
        peers = self._monitor_cache.get(rank)
        if peers is None:
            peers = self._monitor_cache[rank] = self._tree_neighbors(rank)
        return peers

    def _tree_neighbors(self, rank: int) -> frozenset:
        order = self._alive_order
        if order is None:
            pos, size = rank, self.n_images
            rank_at = lambda p: p
        else:
            pos = self._alive_pos.get(rank)
            size = len(order)
            rank_at = order.__getitem__
            if pos is None:
                # Confirmed-but-calling: alive despite the verdict.
                # Probe the surrogate root until a delivery resurrects.
                return frozenset(order[:1])
        radix = self.config.tree_radix
        out = []
        if pos > 0:
            out.append(rank_at((pos - 1) // radix))
        first_child = radix * pos + 1
        for c in range(first_child, min(first_child + radix, size)):
            out.append(rank_at(c))
        return frozenset(out)

    def _on_delivery(self, src: int, dst: int) -> None:
        now = self.machine.sim.now
        if src in self.monitored_peers(dst):
            heard = self._last_heard.get(dst)
            if heard is None:
                heard = self._last_heard[dst] = {}
            prev = heard.get(src)
            if self._phi and prev is not None and now > prev:
                key = (dst, src)
                window = self._intervals.get(key)
                if window is None:
                    window = self._intervals[key] = deque(
                        maxlen=self.config.window)
                window.append(now - prev)
            heard[src] = now
        # A delivery IS life: lift any wrong verdict about the sender
        # before the message's own callbacks run (the transport calls
        # this hook first), so its counter stamps land un-reconciled.
        if src in self.confirmed:
            if src not in self.machine.dead_images:
                self.resurrect(src)
        elif src in self.suspects:
            self.unsuspect(src)

    def _phi_value(self, observer: int, peer: int, elapsed: float) -> float:
        """Hayashibara phi: -log10 of the probability that a delivery
        gap this long or longer occurs under the observed inter-arrival
        distribution (normal approximation, std floored at a quarter of
        the mean so a metronomic sender is not suspected on microscopic
        jitter)."""
        window = self._intervals.get((observer, peer))
        if window is None or len(window) < 4:
            # Cold start: too little history for an estimate — fall
            # back to the fixed timeout rule.
            return math.inf if elapsed > self.config.timeout else 0.0
        mean = sum(window) / len(window)
        var = sum((x - mean) ** 2 for x in window) / len(window)
        std = max(math.sqrt(var), 0.25 * mean, 1e-12)
        y = (elapsed - mean) / std
        p_later = 0.5 * math.erfc(y / math.sqrt(2.0))
        return -math.log10(max(p_later, 1e-30))

    def _detector(self, rank: int):
        machine = self.machine
        sim = machine.sim
        cfg = self.config
        period = cfg.period
        timeout = cfg.timeout
        confirm_timeout = cfg.confirm_timeout
        phi_suspect = cfg.phi_suspect
        phi = self._phi
        faults = machine.faults
        straggling = faults is not None and bool(faults.stragglers)
        while True:
            delay = period
            if straggling:
                # A straggling image's own detector ticks slower too —
                # its heartbeats go out at the degraded cadence.
                delay *= faults.service_factor(rank, sim.now)
            yield Delay(delay)
            now = sim.now
            # O(tree_radix) work per tick: only tree neighbours are
            # watched and heartbeated, never all peers.
            peers = sorted(self.monitored_peers(rank))
            heard = self._last_heard.get(rank)
            if heard is None:
                heard = self._last_heard[rank] = {}
            for peer in peers:
                if peer == rank or peer in self.confirmed:
                    continue
                # A peer first watched on this tick (startup, or just
                # adopted after the tree healed) is measured from now.
                elapsed = now - heard.setdefault(peer, now)
                if peer in self.suspects:
                    # Level two is time-based for BOTH rules: only hard
                    # silence may trigger the irreversible verdict.
                    if elapsed > confirm_timeout:
                        self.confirm(peer)
                    continue
                if phi:
                    if self._phi_value(rank, peer, elapsed) >= phi_suspect:
                        self.publish(peer)
                elif elapsed > timeout:
                    self.publish(peer)
            for peer in peers:
                if peer == rank or peer in self.confirmed:
                    continue
                # Suspected-but-unconfirmed peers keep receiving
                # heartbeats: these probes (best-effort, so they bypass
                # the quarantine) are what lets a falsely-suspected peer
                # answer back and be unsuspected after a partition heals.
                machine.am.request_nb(
                    rank, peer, _HB, category=AMCategory.SHORT,
                    best_effort=True, kind="fail.hb",
                )
            machine.stats.incr("fail.hb_rounds")

    # ------------------------------------------------------------------ #
    # Membership transitions
    # ------------------------------------------------------------------ #

    def _gossip(self, op: str, peer: int) -> None:
        """Broadcast a membership transition to every other process.

        Under the simulator the suspect/confirmed sets are one shared
        structure (an idealized membership service); on real processes
        each worker holds its own copy, so the observer that makes a
        transition tells everyone else.  Best-effort SHORT messages
        (verdicts about a dead peer must not park in its quarantine);
        application is idempotent at the receiver, so crossed gossip
        converges — every *effective* transition is broadcast exactly
        once and applied at most once per machine, which keeps the
        membership generation counters equal across workers (the
        ft_epoch report rounds compare them)."""
        machine = self.machine
        if machine.backend == "sim":
            return
        src = machine.local_ranks[0]
        for dst in range(self.n_images):
            if dst == src:
                continue
            machine.am.request_nb(
                src, dst, _MEMBER, args=(op, peer),
                category=AMCategory.SHORT, best_effort=True,
                kind="fail.member",
            )

    def publish(self, peer: int, gossip: bool = True) -> None:
        """Level one — SUSPECTED: park traffic toward ``peer`` in the
        transport quarantine.  Revocable; nothing is reconciled yet."""
        if peer in self.suspects:
            return
        machine = self.machine
        machine.network.mark_suspect(peer)
        self.gen += 1
        now = machine.sim.now
        self.suspected_at[peer] = now
        machine.stats.incr("fail.suspected")
        t_dead = machine.dead_at.get(peer)
        if t_dead is None:
            machine.stats.incr("fail.false_suspected")
        else:
            self.suspect_latency.append(now - t_dead)
        if machine.tracer is not None:
            machine.tracer.instant(peer, "fail.suspected", now,
                                   args={"gen": self.gen})
        if gossip:
            self._gossip("suspect", peer)
        self.check_stop()

    def confirm(self, peer: int, gossip: bool = True) -> None:
        """Level two — CONFIRMED_DEAD: fail the quarantined traffic and
        reconcile the survivors' finish frames."""
        if peer in self.confirmed:
            return
        machine = self.machine
        machine.network.confirm_dead(peer)
        self.gen += 1
        now = machine.sim.now
        machine.stats.incr("fail.confirmed")
        t_dead = machine.dead_at.get(peer)
        if t_dead is None:
            machine.stats.incr("fail.false_confirmed")
        else:
            self.confirm_latency.append(now - t_dead)
        if machine.tracer is not None:
            machine.tracer.instant(peer, "fail.confirmed", now,
                                   args={"gen": self.gen})
        if gossip:
            self._gossip("confirm", peer)
        machine._on_confirm(peer)
        self.check_stop()

    def unsuspect(self, peer: int, gossip: bool = True) -> None:
        """A merely-suspected peer delivered: the suspicion was false.
        Bump its incarnation and flush the quarantined traffic."""
        if peer in self.confirmed or peer in self.machine.dead_images:
            return
        machine = self.machine
        self.gen += 1
        self.incarnations[peer] += 1
        self.recovered.add(peer)
        t0 = self.suspected_at.pop(peer, None)
        now = machine.sim.now
        if t0 is not None:
            self.time_to_unsuspect.append(now - t0)
        machine.stats.incr("fail.unsuspected")
        if machine.tracer is not None:
            machine.tracer.instant(peer, "fail.unsuspected", now,
                                   args={"gen": self.gen,
                                         "incarnation": self.incarnations[peer]})
        machine._on_heal(peer)
        # Flush after the heal: quarantined deliveries must find the
        # frames un-reconciled when their counter callbacks run.
        machine.network.unmark_suspect(peer)
        if gossip:
            self._gossip("unsuspect", peer)

    def resurrect(self, peer: int, gossip: bool = True) -> None:
        """A *confirmed* peer delivered — the irreversible verdict was
        wrong after all.  Undo it: replay the reconciliation algebra in
        reverse so the peer's counter stamps count again."""
        machine = self.machine
        if peer in machine.dead_images:
            return  # physically dead; a live delivery cannot happen
        self.confirmed.discard(peer)
        self.suspects.discard(peer)
        self.gen += 1
        self.incarnations[peer] += 1
        self.recovered.add(peer)
        t0 = self.suspected_at.pop(peer, None)
        now = machine.sim.now
        if t0 is not None:
            self.time_to_unsuspect.append(now - t0)
        machine.stats.incr("fail.resurrected")
        if machine.tracer is not None:
            machine.tracer.instant(peer, "fail.resurrected", now,
                                   args={"gen": self.gen,
                                         "incarnation": self.incarnations[peer]})
        machine._on_heal(peer)
        if gossip:
            self._gossip("resurrect", peer)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def alive_members(self, team) -> list[int]:
        """Team members not currently suspected, in world-rank order —
        the responsiveness view (who to pick as a coordinator, who to
        wait on synchronously).  NOT a soundness boundary: use
        :meth:`required_members` for any quorum whose completeness a
        correctness argument depends on."""
        return [r for r in sorted(team) if r not in self.suspects]

    def required_members(self, team) -> list[int]:
        """Team members a finish verdict must account for: everyone not
        CONFIRMED dead.  A merely-suspected member is alive until proven
        otherwise and still holds un-reconciled counters; summing
        ``sent - completed`` over a subset that excludes it is not a
        consistent cut — its unmatched completions and sends flow
        through the survivors' counters with opposite signs and can
        cancel to a spurious zero verdict while it holds live work.
        Confirmed deaths are excluded exactly because
        ``reconcile_failure`` folded their stamps into the survivors."""
        return [r for r in sorted(team) if r not in self.confirmed]

    def has_failed(self, team) -> bool:
        """Whether any team member is CONFIRMED dead (mere suspicion is
        revocable and must not abort anything)."""
        return any(r in self.confirmed for r in team)


def _heartbeat_handler(ctx) -> None:
    """Inline no-op: the delivery itself refreshed the last-heard clock
    through the transport's on_delivery hook."""


def _make_member_handler(machine):
    """Apply a gossiped membership transition, guarded so an already-
    applied (or since-reversed) transition is a no-op — the idempotence
    that keeps per-machine generation counters converging in process
    mode (see :meth:`FailureService._gossip`)."""
    def handle_member(ctx, op: str, peer: int) -> None:
        service = machine.failure
        if service is None:
            return
        if op == "suspect":
            service.publish(peer, gossip=False)
        elif op == "confirm":
            service.confirm(peer, gossip=False)
        elif op == "unsuspect":
            if peer in service.suspects and peer not in service.confirmed:
                service.unsuspect(peer, gossip=False)
        elif op == "resurrect":
            if peer in service.confirmed:
                service.resurrect(peer, gossip=False)
    return handle_member
