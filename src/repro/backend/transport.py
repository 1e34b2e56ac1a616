"""GASNet-shim conduit transport for the process backend.

:class:`ProcessTransport` is the process backend's wire under the send
gate it shares with the simulator's :class:`~repro.net.transport.Network`
(:class:`~repro.net.transport.Transport`: two-level membership,
quarantine, fail-fast sends and :class:`PeerFailedError`).  It moves
real bytes: each active message is pickled with the wire format
(:mod:`repro.backend.wire`) and pushed onto the destination worker's
multiprocessing queue by the sending process; the destination's
progress thread hands it to the destination's run loop, which unpickles
and dispatches it through the same ``AMLayer._on_deliver`` the
simulator uses.

Reliability: a multiprocessing queue never drops or reorders, so there
is no retransmission machinery; ``want_ack`` sends are tracked in an
awaiting-ack table and an explicit ack frame — sent *after* the deliver
callback has run, matching the simulator's ack ordering — resolves
``receipt.delivered``.  What CAN fail is the peer process itself: a
killed worker never acks, so when it crashes or the failure detector
confirms it dead, every awaiting-ack receipt toward it fails with
:class:`PeerFailedError` — the exact signal the finish/recovery layer
reconciles on in the simulator.
"""

from __future__ import annotations

from repro.net.transport import DeliveryReceipt, Message, Transport
from repro.backend.wire import dump_frame, load_frame


class ProcessTransport(Transport):
    """One per worker process; world-addressed send/receive over the
    conduit's per-rank queues."""

    def __init__(self, sim, params, stats, conduit):
        super().__init__(sim, params, stats)
        self.conduit = conduit
        self.local_rank: int = conduit.rank
        #: bound by the Machine once the AM layer exists
        self.machine = None
        self.am_deliver = None
        #: (dst, seq) -> receipt of a transmitted want_ack send
        self._awaiting: dict[tuple, DeliveryReceipt] = {}

    def bind(self, machine) -> None:
        self.machine = machine
        self.am_deliver = machine.am._on_deliver

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #

    def _send_now(self, msg: Message, receipt: DeliveryReceipt,
                  best_effort: bool) -> None:
        self.stats.incr("net.bytes", msg.size)
        if msg.dst == self.local_rank:
            # Loopback: no pickling (reference semantics, same as the
            # simulator's local delivery) but still asynchronous.
            self.sim.call_soon(self._deliver_local, msg, receipt)
            return
        blob = dump_frame(self.machine, (msg.kind, msg.size, msg.payload))
        if receipt.delivered is not None:
            self._awaiting[(msg.dst, msg.seq)] = receipt
        self.conduit.put(msg.dst, ("am", self.local_rank, msg.seq,
                                   receipt.delivered is not None, blob))
        self.sim.call_soon(receipt.injected.set_result, None)

    def _deliver_local(self, msg: Message, receipt: DeliveryReceipt) -> None:
        receipt.injected.set_result(None)
        if self.on_delivery is not None:
            self.on_delivery(msg.src, msg.dst)
        if msg.on_deliver is not None:
            msg.on_deliver(msg)
        if receipt.delivered is not None and not receipt.delivered.done:
            receipt.delivered.set_result(None)

    # ------------------------------------------------------------------ #
    # Receive path (run-loop thread; the progress thread only posts)
    # ------------------------------------------------------------------ #

    def deliver_frame(self, item: tuple) -> None:
        """Dispatch one conduit frame.  Called on the run-loop thread via
        ``sim.post``; a frame that fails to decode raises out of the loop
        so the worker reports a structured error instead of hanging."""
        tag = item[0]
        if tag == "am":
            _, src, seq, want_ack, blob = item
            kind, size, payload = load_frame(self.machine, blob)
            msg = Message(src, self.local_rank, size, payload, kind=kind)
            msg.seq = seq
            self.stats.incr("net.delivered")
            if self.on_delivery is not None:
                self.on_delivery(src, self.local_rank)
            if self.am_deliver is not None:
                self.am_deliver(msg)
            if want_ack:
                # After the deliver callback, like the simulator's
                # reliable path: the ack certifies delivery, not receipt.
                self.conduit.put(src, ("ack", self.local_rank, seq))
        elif tag == "ack":
            _, src, seq = item
            receipt = self._awaiting.pop((src, seq), None)
            if (receipt is not None and receipt.delivered is not None
                    and not receipt.delivered.done):
                receipt.delivered.set_result(None)

    # ------------------------------------------------------------------ #
    # Peer loss and diagnostics
    # ------------------------------------------------------------------ #

    def _peer_lost(self, image: int, crashed: bool) -> None:
        """A peer process died: its acks will never come.  Failing the
        awaiting receipts is what turns an OS-level kill into the same
        :class:`PeerFailedError` signal the recovery ledger re-executes
        on (``spawn._delivery_outcome``)."""
        for key in [k for k in self._awaiting if k[0] == image]:
            self._fail(self._awaiting.pop(key), "acknowledgment", image)

    def _awaiting_ack(self):
        return (r.message for r in self._awaiting.values())
