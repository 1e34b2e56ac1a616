"""The live-task registry: what ``kill_owner`` kills, and that finished
runtime objects die by reference count (DESIGN.md §9.6)."""

import gc

import pytest

from repro import run_spmd
from repro.backend.realtime import RealtimeScheduler
from repro.sim.engine import Simulator
from repro.sim.tasks import Future, Task


def _drain(sub):
    """Run everything queued on ``sub``, then return."""
    if isinstance(sub, Simulator):
        sub.run()
    else:
        # The wall-clock loop serves until stopped; queue the stop last.
        sub.call_soon(sub.stop)
        sub.run()
        sub._stop_flag = False


@pytest.mark.parametrize("make", [Simulator, RealtimeScheduler],
                         ids=["sim", "realtime"])
def test_kill_owner_contract(make):
    sub = make()
    killed, cleanup = [], []
    gates, tids = {}, {}

    class Recording(Task):
        __slots__ = ()

        def kill(self):
            killed.append(self.tid)
            super().kill()

    def body(tag, gate):
        try:
            yield gate
        finally:
            cleanup.append(tag)

    # Owners interleave, so registration order is not grouped by owner.
    # No reference to a task is kept: the registry alone decides what
    # stays alive.
    for tag, owner in (("a1", 1), ("b2", 2), ("a2", 1), ("done1", 1),
                       ("free", None), ("a3", 1)):
        gates[tag] = Future(tag)
        tids[tag] = Recording(sub, body(tag, gates[tag]), name=tag,
                              owner=owner).tid
    _drain(sub)                      # every task blocks at its gate
    gates["done1"].set_result(None)
    _drain(sub)                      # a finished task leaves the registry
    assert cleanup == ["done1"]
    assert len(sub.live_tasks) == 4  # a1, b2, a2, a3; "free" has no owner

    assert sub.kill_owner(1) == 3
    assert killed == [tids["a1"], tids["a2"], tids["a3"]]  # tid order
    assert len(sub.live_tasks) == 1
    assert sub.kill_owner(1) == 0    # only live tasks are killed

    for gate in gates.values():
        if not gate.done:
            gate.set_result(None)
    _drain(sub)
    gc.collect()
    # The survivors ran on; the killed tasks never advanced, and their
    # finally: blocks did not run (a crashed image counts nothing).
    assert cleanup == ["done1", "b2", "free"]
    assert len(sub.live_tasks) == 0


def _noop(img):
    return
    yield


def _spawner(img, n):
    yield from img.finish_begin()
    if img.rank == 0:
        for i in range(n):
            yield from img.spawn(_noop, 1 + i % 3)
    yield from img.finish_end()


def _garbage_after(n):
    """Cyclic garbage a run of ``n`` spawns leaves, and the tasks its
    registry still holds once the run is over."""
    gc.collect()
    gc.disable()
    try:
        machine, _ = run_spmd(_spawner, 4, args=(n,))
        live = len(machine.sim.live_tasks)
        del machine
        return gc.collect(), live
    finally:
        gc.enable()


def test_spawned_work_dies_by_reference_count():
    """Per-spawn objects (tasks, completion records, futures) never need
    the cyclic collector: the garbage a run leaves behind does not grow
    with the number of spawns, and no finished task stays registered."""
    _garbage_after(10)  # warm imports and caches
    garbage_200, live_200 = _garbage_after(200)
    garbage_400, live_400 = _garbage_after(400)
    assert live_200 == live_400 == 0
    assert garbage_200 == garbage_400
