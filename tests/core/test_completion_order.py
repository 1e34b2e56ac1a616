"""Callback order and failure propagation of message-sending operations.

On its delivery ack each operation resolves its completion points and
counts the send on its finish frame in a fixed order, per operation:

- spawn: ``local_op``, the frame's delivered count, ``global_done``;
- put from the initiator: ``local_op``, ``global_done``, the count;
- remote-to-remote copy: ``local_op``, the count (``global_done`` comes
  later, with the destination's confirmation).

Each completion callback below records the frame's delivered count at
the moment it fires, which pins where the count sits in that order.  A
send lost to a crashed peer surfaces its ``PeerFailedError`` at the
completion points, uncounts the send once, and (with recovery) a lost
spawn re-runs exactly once on the spawner.
"""

import numpy as np

from repro import run_spmd
from repro.net.faults import FaultPlan
from repro.net.transport import PeerFailedError
from repro.runtime.failure import FailureConfig

#: when the initiator sends in the crash scenarios
T0 = 1e-4
#: crash this long after T0: the message is on the wire, not delivered
IN_FLIGHT = 1e-6


def _setup(m):
    m.coarray("T", shape=4, dtype=np.float64)


def _record(log, frame, op, points=("local_op", "global_done")):
    for point in points:
        getattr(op, point).add_done_callback(
            lambda _f, p=point: log.append((p, frame.c_delivered)))


def _noop(img):
    return
    yield


class TestDeliveredOrder:
    def test_spawn_local_op_then_count_then_global_done(self):
        log, after = [], []

        def kernel(img):
            frame = yield from img.finish_begin()
            if img.rank == 0:
                op = yield from img.spawn(_noop, 1)
                _record(log, frame, op)
                yield op.global_done
                after.append(frame.c_delivered)
            yield from img.finish_end()

        run_spmd(kernel, 2)
        assert log == [("local_op", 0), ("global_done", 1)]
        assert after == [1]

    def test_put_local_op_then_global_done_then_count(self):
        log, after = [], []

        def kernel(img):
            frame = yield from img.finish_begin()
            if img.rank == 0:
                T = img.machine.coarray_by_name("T")
                op = img.copy_async(T.ref(1), np.ones(4))
                _record(log, frame, op)
                yield op.global_done
                yield from img.compute(1e-9)
                after.append(frame.c_delivered)
            yield from img.finish_end()

        run_spmd(kernel, 2, setup=_setup)
        assert log == [("local_op", 0), ("global_done", 0)]
        assert after == [1]

    def test_forward_local_op_then_count(self):
        log = []

        def kernel(img):
            frame = yield from img.finish_begin()
            if img.rank == 0:
                T = img.machine.coarray_by_name("T")
                op = img.copy_async(T.ref(2), T.ref(1))
                _record(log, frame, op)
                yield op.global_done
            yield from img.finish_end()

        run_spmd(kernel, 3, setup=_setup)
        # global_done waits for the destination's confirmation, which
        # arrives after the control message's ack was counted
        assert log == [("local_op", 0), ("global_done", 1)]


def _crash_run(kernel, n, setup=None):
    return run_spmd(kernel, n, setup=setup,
                    faults=FaultPlan().crash_at(1, T0 + IN_FLIGHT),
                    failure_detection=FailureConfig(recover=True))


class TestLostSend:
    def test_spawn_failure_reaches_handle_and_reruns_once(self):
        ops, ran_on = [], []

        def mark(img):
            ran_on.append(img.rank)
            yield from img.compute(1e-6)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.compute(T0)
                ops.append((yield from img.spawn(mark, 1)))
            yield from img.finish_end()

        m, _ = _crash_run(kernel, 2)
        (op,) = ops
        assert isinstance(op.local_op.exception(), PeerFailedError)
        assert op.global_done.exception() is op.local_op.exception()
        assert m.stats["finish.sends_failed"] == 1
        assert m.stats["spawn.recovered"] == 1
        assert ran_on == [0]  # re-executed on the spawner, exactly once

    def test_put_failure_reaches_handle(self):
        ops = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.compute(T0)
                T = img.machine.coarray_by_name("T")
                ops.append(img.copy_async(T.ref(1), np.ones(4)))
            yield from img.finish_end()

        m, _ = _crash_run(kernel, 2, setup=_setup)
        (op,) = ops
        assert isinstance(op.local_op.exception(), PeerFailedError)
        assert op.global_done.exception() is op.local_op.exception()
        assert op.local_data.done and op.local_data.exception() is None
        assert m.stats["finish.sends_failed"] == 1

    def test_forward_failure_reaches_local_op(self):
        ops = []

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.compute(T0)
                T = img.machine.coarray_by_name("T")
                ops.append(img.copy_async(T.ref(2), T.ref(1)))
            yield from img.finish_end()

        m, _ = _crash_run(kernel, 3, setup=_setup)
        (op,) = ops
        assert isinstance(op.local_op.exception(), PeerFailedError)
        # the source never forwarded, so no confirmation ever arrives
        assert not op.global_done.done
        assert m.stats["finish.sends_failed"] == 1
