"""Predicated asynchronous copies (paper §II-C.1).

::

    copy_async(dest, src, pre_event=..., src_event=..., dest_event=...)

``dest``/``src`` are either :class:`~repro.runtime.coarray.CoarrayRef`
handles (possibly remote) or local numpy buffers of the initiating image.
All placement combinations are supported:

- local → remote (*put path*): one data message;
- remote → local (*get path*): a request plus a data reply;
- remote → remote (*forward path*): the initiator sends a control
  message to the source image, which puts to the destination and has it
  confirm back to the initiator;
- local → local: a memcpy charged at memory bandwidth.

Events (all optional, each a local :class:`EventVar` or a remote
:class:`EventRef`):

- ``pre_event``  — the copy proceeds only after this event is posted
  (one post is consumed);
- ``src_event``  — posted when the source data has been read (the source
  buffer may be overwritten);
- ``dest_event`` — posted when the data has been delivered to the
  destination buffer.

When no completion event is given the copy uses *implicit completion*:
it registers on the activation for ``cofence`` and is counted against the
enclosing ``finish`` frame.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Union

import numpy as np

from repro.runtime.coarray import CoarrayRef
from repro.runtime.event import EventRef, EventVar
from repro.net.active_messages import AMCategory
from repro.core.completion import AsyncOp, OpCompletion, forward
from repro.core import finish as fin

_PUT = "copy.put"
_GET_REQ = "copy.get_req"
_DATA = "copy.data"
_FWD = "copy.fwd"
_DONE = "copy.done"

_tokens = itertools.count(1)


class _Loc:
    """Normalized endpoint: a coarray ref, or a local buffer of the
    initiator."""

    __slots__ = ("ref", "buffer", "rank")

    def __init__(self, ref: Optional[CoarrayRef], buffer: Optional[np.ndarray],
                 rank: int):
        self.ref = ref
        self.buffer = buffer
        self.rank = rank

    @property
    def nbytes(self) -> int:
        if self.ref is not None:
            return self.ref.nbytes
        return int(self.buffer.nbytes)

    def read(self) -> np.ndarray:
        if self.ref is not None:
            return self.ref.read()
        return np.copy(self.buffer)

    def write(self, data: Any) -> None:
        if self.ref is not None:
            self.ref.write(data)
        else:
            self.buffer[...] = data


def _normalize(ctx, x: Union[CoarrayRef, np.ndarray], what: str) -> _Loc:
    if isinstance(x, CoarrayRef):
        return _Loc(x, None, x.world_rank)
    if isinstance(x, np.ndarray):
        return _Loc(None, x, ctx.rank)
    if what == "src" and isinstance(x, (np.generic, int, float, complex)):
        # Scalars are fine as sources (a value to write); destinations
        # must be writable storage.
        return _Loc(None, np.asarray(x), ctx.rank)
    raise TypeError(
        f"copy_async {what} must be a CoarrayRef or a local numpy array, "
        f"got {type(x).__name__}"
    )


def _event_ref(ctx, ev) -> Optional[EventRef]:
    if ev is None:
        return None
    if isinstance(ev, EventRef):
        return ev
    if isinstance(ev, EventVar):
        return ev.ref_for(ctx.rank)
    raise TypeError(f"expected EventVar or EventRef, got {type(ev).__name__}")


def register_handlers(machine) -> None:
    machine.am.register(_PUT, _make_put_handler(machine))
    machine.am.register(_GET_REQ, _make_get_req_handler(machine))
    machine.am.register(_DATA, _make_data_handler(machine))
    machine.am.register(_FWD, _make_fwd_handler(machine))
    machine.am.register(_DONE, _make_done_handler(machine))


def _make_put_handler(machine):
    def handle_put(ctx, ref: CoarrayRef, key, tag, dest_event,
                   done_token, done_rank):
        recv_stamp = fin.count_received(machine, ctx.image, key, tag,
                                        src=ctx.src)
        ref.write(ctx.payload)
        fin.count_completed(machine, ctx.image, key, recv_stamp)
        if dest_event is not None:
            machine.post_event(dest_event, from_rank=ctx.image)
        if done_token is not None:
            machine.am.request_nb(
                ctx.image, done_rank, _DONE, args=(done_token,),
                category=AMCategory.SHORT, kind="copy.done",
            )
    return handle_put


def _make_get_req_handler(machine):
    def handle_get_req(ctx, ref: CoarrayRef, token, key, tag, src_event,
                       reply_rank):
        recv_stamp = fin.count_received(machine, ctx.image, key, tag,
                                        src=ctx.src)
        data = ref.read()
        if src_event is not None:
            machine.post_event(src_event, from_rank=ctx.image)
        reply_stamp = fin.count_send(machine, ctx.image, key, dst=reply_rank,
                                     cause=recv_stamp)
        receipt = machine.am.request_nb(
            ctx.image, reply_rank, _DATA,
            args=(token, key, fin.wire_tag(reply_stamp)),
            payload=data, payload_size=int(np.asarray(data).nbytes),
            category=AMCategory.LONG, want_ack=(key is not None),
            kind="copy.data",
        )
        if key is not None:
            receipt.delivered.add_done_callback(fin.CountedSend(
                fin.frame_at(machine, ctx.image, key),
                reply_stamp).count_outcome)
        fin.count_completed(machine, ctx.image, key, recv_stamp)
    return handle_get_req


def _make_data_handler(machine):
    def handle_data(ctx, token, key, reply_tag):
        recv_stamp = fin.count_received(machine, ctx.image, key, reply_tag,
                                        src=ctx.src)
        complete = machine.scratch.pop(("copy.token", token))
        complete(ctx.payload)
        fin.count_completed(machine, ctx.image, key, recv_stamp)
    return handle_data


def _make_fwd_handler(machine):
    def handle_fwd(ctx, src_ref: CoarrayRef, dest_ref: CoarrayRef, key, tag,
                   src_event, dest_event, done_token, done_rank):
        recv_stamp = fin.count_received(machine, ctx.image, key, tag,
                                        src=ctx.src)
        data = src_ref.read()
        if src_event is not None:
            machine.post_event(src_event, from_rank=ctx.image)
        put_stamp = fin.count_send(machine, ctx.image, key,
                                   dst=dest_ref.world_rank,
                                   cause=recv_stamp)
        receipt = machine.am.request_nb(
            ctx.image, dest_ref.world_rank, _PUT,
            args=(dest_ref, key, fin.wire_tag(put_stamp), dest_event,
                  done_token, done_rank),
            payload=data, payload_size=int(np.asarray(data).nbytes),
            category=AMCategory.LONG, want_ack=(key is not None),
            kind="copy.put",
        )
        if key is not None:
            receipt.delivered.add_done_callback(fin.CountedSend(
                fin.frame_at(machine, ctx.image, key),
                put_stamp).count_outcome)
        fin.count_completed(machine, ctx.image, key, recv_stamp)
    return handle_fwd


def _make_done_handler(machine):
    def handle_done(ctx, token):
        complete = machine.scratch.pop(("copy.token", token))
        complete(None)
    return handle_done


# --------------------------------------------------------------------- #
# The operation
# --------------------------------------------------------------------- #

def copy_async(ctx, dest: Union[CoarrayRef, np.ndarray],
               src: Union[CoarrayRef, np.ndarray],
               pre_event=None, src_event=None, dest_event=None,
               _explicit: bool = False) -> AsyncOp:
    """Initiate an asynchronous copy; returns immediately with the handle
    (the return guarantees initiation completion only, §I).

    ``_explicit`` forces explicit-completion treatment even without
    events (used by the blocking get/put wrappers, which synchronize on
    the handle themselves and must not be finish-counted).
    """
    machine = ctx.machine
    d = _normalize(ctx, dest, "dest")
    s = _normalize(ctx, src, "src")
    pre = _event_ref(ctx, pre_event)
    src_ev = _event_ref(ctx, src_event)
    dest_ev = _event_ref(ctx, dest_event)

    implicit = src_event is None and dest_event is None and not _explicit
    frame = ctx.activation.current_frame() if implicit else None

    op = AsyncOp("copy")
    machine.stats.incr("copy.initiated")

    src_local = s.rank == ctx.rank
    dest_local = d.rank == ctx.rank

    op.initiated.set_result(None)
    if implicit:
        pending = op.make_pending(
            reads_local=src_local, writes_local=dest_local,
            released=op.global_done, op_id=machine.next_op_id(),
        )
        ctx.activation.register(pending)

    rcop = (machine.racecheck.copy_begin(ctx, op, implicit,
                                         predicated=pre is not None)
            if machine.racecheck is not None else None)

    launch = (ctx, machine, op, rcop, implicit, d, s, frame, pre, src_ev,
              dest_ev)
    if pre is None:
        _launch(*launch)
    else:
        if op.pending_op is not None:
            op.pending_op.started = False
        machine.when_event(pre, ctx.rank, lambda: _launch(*launch))
    return op


def _launch(ctx, machine, op: AsyncOp, rcop, implicit: bool, d: _Loc,
            s: _Loc, frame, pre, src_ev, dest_ev) -> None:
    """Start the copy (at once, or when its predicate event is posted)
    on the path its endpoints' placement selects.  ``frame`` is the
    finish frame an implicit copy counts toward (else None)."""
    if op.pending_op is not None:
        op.pending_op.started = True
    if rcop is not None:
        machine.racecheck.copy_started(ctx, rcop, implicit, d, s, pre,
                                       src_ev, dest_ev)
    if s.rank == ctx.rank:
        if d.rank == ctx.rank:
            _start_local(ctx, machine, op, d, s, src_ev, dest_ev)
        else:
            _start_put(ctx, machine, op, d, s, frame, src_ev, dest_ev)
    elif d.rank == ctx.rank:
        _start_get(ctx, machine, op, d, s, frame, src_ev, dest_ev)
    else:
        _start_forward(ctx, machine, op, d, s, frame, src_ev, dest_ev)


def _start_local(ctx, machine, op: AsyncOp, d: _Loc, s: _Loc,
                 src_ev, dest_ev) -> None:
    """Both endpoints on the initiator: a memcpy at memory bandwidth."""
    data = s.read()
    delay = max(machine.params.o_send,
                machine.params.transfer_time(s.nbytes))

    def apply() -> None:
        d.write(data)
        if src_ev is not None:
            machine.post_event(src_ev, from_rank=ctx.rank)
        if dest_ev is not None:
            machine.post_event(dest_ev, from_rank=ctx.rank)
        op.local_data.set_result(None)
        op.local_op.set_result(None)
        op.global_done.set_result(None)

    machine.sim.schedule(delay, apply)


def _start_put(ctx, machine, op: AsyncOp, d: _Loc, s: _Loc, frame,
               src_ev, dest_ev) -> None:
    """Source on the initiator, destination remote: one data message."""
    key = frame.key if frame is not None else None
    data = s.read()
    stamp = fin.count_send(machine, ctx.rank, key, dst=d.rank,
                           cause=ctx.activation.cause)
    receipt = machine.am.request_nb(
        ctx.rank, d.rank, _PUT,
        args=(d.ref, key, fin.wire_tag(stamp), dest_ev, None, None),
        payload=data, payload_size=s.nbytes,
        category=AMCategory.LONG, want_ack=True, kind="copy.put",
    )
    done = _PutCompletion(op, machine, ctx.rank, frame, stamp, src_ev)
    receipt.injected.add_done_callback(done.on_injected)
    receipt.delivered.add_done_callback(done.on_delivered)


class _PutCompletion(OpCompletion):
    """Completion record of a put from the initiator.

    ``injected``: ``local_data`` (the NIC has read the source buffer),
    then the source event.  ``delivered``: ``local_op``, ``global_done``,
    then the frame count.  Local operation completion == global
    completion for a put from the initiator (§I: "for an asynchronous
    copy from p to q initiated by p, local data completion and local
    operation completion are equivalent" — on the *source* side;
    delivery is what the ack tells us, which is both this image's last
    pairwise communication and the operation's global completion)."""

    __slots__ = ("src_ev",)

    def __init__(self, op: AsyncOp, machine, rank: int, frame, stamp,
                 src_ev) -> None:
        super().__init__(op, machine, rank, frame, stamp)
        self.src_ev = src_ev

    def on_injected(self, f) -> None:
        forward(f, self.op.local_data)
        if self.src_ev is not None:
            self.machine.post_event(self.src_ev, from_rank=self.rank)

    def on_delivered(self, f) -> None:
        op = self.op
        forward(f, op.local_op)
        forward(f, op.global_done)
        self.count_outcome(f)


def _start_get(ctx, machine, op: AsyncOp, d: _Loc, s: _Loc, frame,
               src_ev, dest_ev) -> None:
    """Source remote, destination on the initiator: request + reply."""
    key = frame.key if frame is not None else None
    token = next(_tokens)
    stamp = fin.count_send(machine, ctx.rank, key, dst=s.rank,
                           cause=ctx.activation.cause)
    done = _GetCompletion(op, machine, ctx.rank, frame, stamp, d, dest_ev)
    machine.scratch[("copy.token", token)] = done.complete
    receipt = machine.am.request_nb(
        ctx.rank, s.rank, _GET_REQ,
        args=(s.ref, token, key, fin.wire_tag(stamp), src_ev, ctx.rank),
        category=AMCategory.SHORT, want_ack=(key is not None),
        kind="copy.get_req",
    )
    if key is not None:
        receipt.delivered.add_done_callback(done.count_outcome)


class _GetCompletion(OpCompletion):
    """Completion record of a get: the request's delivery ack only
    counts it on the frame; the data reply's :meth:`complete` writes the
    destination and resolves every completion point at once."""

    __slots__ = ("dest", "dest_ev")

    def __init__(self, op: AsyncOp, machine, rank: int, frame, stamp,
                 dest: _Loc, dest_ev) -> None:
        super().__init__(op, machine, rank, frame, stamp)
        self.dest = dest
        self.dest_ev = dest_ev

    def complete(self, data) -> None:
        self.dest.write(data)
        if self.dest_ev is not None:
            self.machine.post_event(self.dest_ev, from_rank=self.rank)
        op = self.op
        op.local_data.set_result(None)
        op.local_op.set_result(None)
        op.global_done.set_result(None)


def _start_forward(ctx, machine, op: AsyncOp, d: _Loc, s: _Loc, frame,
                   src_ev, dest_ev) -> None:
    """Both endpoints remote: control to the source image, which puts to
    the destination; the destination confirms back to the initiator."""
    key = frame.key if frame is not None else None
    token = next(_tokens)
    stamp = fin.count_send(machine, ctx.rank, key, dst=s.rank,
                           cause=ctx.activation.cause)
    done = _ForwardCompletion(op, machine, ctx.rank, frame, stamp)
    machine.scratch[("copy.token", token)] = done.complete
    receipt = machine.am.request_nb(
        ctx.rank, s.rank, _FWD,
        args=(s.ref, d.ref, key, fin.wire_tag(stamp), src_ev, dest_ev,
              token, ctx.rank),
        category=AMCategory.SHORT, want_ack=True, kind="copy.fwd",
    )
    receipt.injected.add_done_callback(done.on_injected)
    receipt.delivered.add_done_callback(done.on_delivered)


class _ForwardCompletion(OpCompletion):
    """Completion record of a remote-to-remote copy.  The initiator's
    buffers are never touched: its local-data point is the injection of
    the control message (argument evaluation done); its last pairwise
    communication is that message's delivery (``local_op``, then the
    frame count); ``global_done`` waits for the destination's
    confirmation (:meth:`complete`)."""

    __slots__ = ()

    def on_delivered(self, f) -> None:
        forward(f, self.op.local_op)
        self.count_outcome(f)

    def complete(self, _ignored) -> None:
        self.op.global_done.set_result(None)
