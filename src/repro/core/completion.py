"""The four completion points of an asynchronous operation (paper Fig. 1).

Every asynchronous operation in the runtime returns an :class:`AsyncOp`
carrying one future per completion point:

- ``initiated``     — the operation has been queued for execution
  (always resolved by the time the initiating call returns);
- ``local_data``    — inputs on the initiator may be overwritten, outputs
  on the initiator may be read (what ``cofence`` waits for);
- ``local_op``      — all pair-wise communication involving the initiator
  is complete (what an attached event signals);
- ``global_done``   — the operation is complete on every participating
  image (what ``finish`` guarantees for implicit operations).

The invariant ``local_data ≤ local_op ≤ global_done`` (in time) holds for
every operation; tests assert it.

An operation that sends a message drives its completion points from the
message's transport receipt through one :class:`OpCompletion` record
(DESIGN.md §9.6): a slotted object whose bound methods are the receipt's
done-callbacks, so a finished operation leaves no closure cells or
reference cycles behind for the cyclic collector.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.tasks import Future
from repro.runtime.memory_model import PendingOp
from repro.core.finish import CountedSend

#: future names per operation kind, built once per kind
_NAMES: dict[str, tuple[str, str, str, str]] = {}


def _names(kind: str) -> tuple[str, str, str, str]:
    names = _NAMES.get(kind)
    if names is None:
        names = _NAMES[kind] = (f"{kind}.initiated", f"{kind}.local_data",
                                f"{kind}.local_op", f"{kind}.global_done")
    return names


class AsyncOp:
    """Handle for one asynchronous operation."""

    __slots__ = ("kind", "initiated", "local_data", "local_op",
                 "global_done", "pending_op", "rc")

    def __init__(self, kind: str):
        self.kind = kind
        initiated, local_data, local_op, global_done = _names(kind)
        self.initiated = Future(initiated)
        self.local_data = Future(local_data)
        self.local_op = Future(local_op)
        self.global_done = Future(global_done)
        #: the record registered on the initiating activation when the
        #: operation uses implicit completion; None for explicit ops
        self.pending_op: Optional[PendingOp] = None
        #: race-detector clock material (analysis.racecheck), when enabled
        self.rc = None

    def make_pending(self, reads_local: bool, writes_local: bool,
                     released: Optional[Future] = None,
                     op_id: Optional[int] = None) -> PendingOp:
        """Build (and remember) the pending-op record for this operation."""
        self.pending_op = PendingOp(
            self.kind, reads_local, writes_local,
            local_data=self.local_data, local_op=self.local_op,
            released=released if released is not None else self.global_done,
            op_id=op_id,
        )
        return self.pending_op

    def __repr__(self) -> str:
        stage = ("global" if self.global_done.done else
                 "local_op" if self.local_op.done else
                 "local_data" if self.local_data.done else
                 "initiated" if self.initiated.done else "new")
        return f"<AsyncOp {self.kind} @{stage}>"


def forward(src: Future, dst: Future) -> None:
    """Resolve ``dst`` as the resolved ``src`` (value or exception)."""
    exc = src._exc
    if exc is not None:
        dst.set_exception(exc)
    else:
        dst.set_result(src._value)


def chain(src: Future, dst: Future) -> None:
    """Resolve ``dst`` when ``src`` resolves (value forwarded)."""
    src.add_done_callback(lambda f: forward(f, dst))


class OpCompletion(CountedSend):
    """The completion record of one message-sending operation.

    Holds what the operation's completion needs once its message is on
    the wire: the :class:`AsyncOp`, the initiating machine and image,
    and (as a :class:`CountedSend`) the finish counting of the send.
    :meth:`on_injected` forwards the receipt's ``injected`` future to
    ``local_data``; each operation subclass supplies ``on_delivered``
    with its own callback order."""

    __slots__ = ("op", "machine", "rank")

    def __init__(self, op: AsyncOp, machine, rank: int, frame,
                 stamp: Optional[tuple]):
        self.op = op
        self.machine = machine
        self.rank = rank
        self.frame = frame
        self.stamp = stamp

    def on_injected(self, f: Future) -> None:
        forward(f, self.op.local_data)
