"""The send gate both transports share (DESIGN §12.4): the quarantine
contract of ``test_transport_failstop.TestQuarantine`` run against the
simulated :class:`Network` and the process backend's
:class:`ProcessTransport` alike.

``ProcessTransport`` runs in-process here: the harness doubles as its
conduit (``rank`` + ``put``), records every frame put on the wire, and
acks acked frames back through ``deliver_frame`` like a live peer.  No
machine is bound — ``None`` payloads pickle without one."""

import pytest

from repro.backend.transport import ProcessTransport
from repro.net.topology import MachineParams, UniformTopology
from repro.net.transport import Message, Network, PeerFailedError
from repro.sim.engine import Simulator
from repro.sim.trace import Stats


class Harness:
    #: conduit surface: the in-process ProcessTransport is world rank 0
    rank = 0

    def __init__(self, wire: str):
        self.sim = Simulator()
        params = MachineParams(
            topology=UniformTopology(4, wire_latency=1e-6, self_latency=1e-7),
            bandwidth=1e9, o_send=1e-7, o_recv=1e-7)
        #: seqs of the messages the wire carried, in order
        self.delivered: list[int] = []
        if wire == "network":
            self.net = Network(self.sim, params, seed=0)
        else:
            self.net = ProcessTransport(self.sim, params, Stats(), self)

    def put(self, dst: int, frame: tuple) -> None:
        tag, _src, seq, want_ack, _blob = frame
        assert tag == "am"
        self.delivered.append(seq)
        if want_ack:
            self.sim.call_soon(self.net.deliver_frame, ("ack", dst, seq))

    def send(self, dst: int, src: int = 0, **kwargs):
        return self.net.send(
            Message(src, dst, 100, None,
                    on_deliver=lambda m: self.delivered.append(m.seq)),
            **kwargs)


@pytest.fixture(params=["network", "process"])
def h(request) -> Harness:
    return Harness(request.param)


class TestQuarantineParity:
    def test_send_to_suspect_parks(self, h):
        h.net.mark_suspect(2)
        receipt = h.send(2, want_ack=True)
        h.sim.run()
        assert h.delivered == []
        assert not receipt.delivered.done
        assert h.net.stats["net.quarantined"] == 1
        assert h.net.quarantine_depths() == {2: 1}

    def test_unsuspect_flushes_fifo_and_counts_each_send_once(self, h):
        h.net.mark_suspect(2)
        receipts = [h.send(2, want_ack=True) for _ in range(3)]
        h.sim.schedule_at(1e-4, h.net.unmark_suspect, 2)
        h.sim.run()
        assert h.delivered == [r.message.seq for r in receipts]
        assert all(r.delivered.exception() is None for r in receipts)
        assert h.net.stats["net.quarantine_flushed"] == 3
        assert h.net.stats["net.msgs"] == 3
        assert h.net.stats["net.bytes"] == 300
        assert h.net.quarantine_depths() == {}

    def test_overflow_fails_newest_send(self, h):
        h.net.quarantine_cap = 1
        h.net.mark_suspect(1)
        first = h.send(1, want_ack=True)
        second = h.send(1, want_ack=True)
        exc = second.delivered.exception()
        assert isinstance(exc, PeerFailedError) and exc.suspected is True
        assert not first.delivered.done
        assert h.net.stats["net.quarantine_overflow"] == 1
        assert h.net.stats["net.msgs"] == 2

    def test_confirmation_fails_parked_sends_as_suspected(self, h):
        h.net.mark_suspect(3)
        receipt = h.send(3, want_ack=True)
        h.net.confirm_dead(3)
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.peer == 3 and exc.suspected is True
        h.sim.run()
        assert receipt.injected.done
        assert h.delivered == []

    def test_mark_dead_fails_parked_sends_as_crash(self, h):
        h.net.mark_suspect(3)
        receipt = h.send(3, want_ack=True)
        h.net.mark_dead(3)
        exc = receipt.delivered.exception()
        assert isinstance(exc, PeerFailedError)
        assert exc.peer == 3 and exc.suspected is False

    def test_best_effort_bypasses_quarantine(self, h):
        h.net.mark_suspect(2)
        receipt = h.send(2, best_effort=True)
        h.sim.run()
        assert h.delivered == [receipt.message.seq]
        assert h.net.stats["net.quarantined"] == 0

    def test_fail_fast_send_is_counted(self, h):
        h.net.confirm_dead(1)
        receipt = h.send(1, want_ack=True)
        assert receipt.delivered.exception().suspected is True
        assert h.net.stats["net.msgs"] == 1
        assert h.net.stats["net.bytes"] == 0

    def test_loopback_is_exempt_from_the_gate(self, h):
        h.net.confirm_dead(0)
        receipt = h.send(0, want_ack=True)
        h.sim.run()
        assert h.delivered == [receipt.message.seq]
        assert receipt.delivered.exception() is None

    def test_crashed_senders_parked_sends_die_with_it(self, h):
        """Regression: a crashed image's own parked sends used to stay in
        the quarantine and be transmitted when the suspicion lifted."""
        h.net.mark_suspect(2)
        h.send(2, src=0)
        h.net.mark_dead(0)
        h.net.unmark_suspect(2)
        h.sim.run()
        assert h.delivered == []
        assert h.net.stats["net.bytes"] == 0
        assert h.net.stats["net.quarantine_flushed"] == 0


def test_crashed_sender_leaves_nic_and_wire_untouched():
    h = Harness("network")
    h.net.mark_suspect(2)
    h.send(2, src=0)
    h.net.mark_dead(0)
    h.net.unmark_suspect(2)
    h.sim.run()
    assert h.net.nic_busy_until(0) == 0.0
    assert h.net.stats["net.dead_link_discards"] == 0
