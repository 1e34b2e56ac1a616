"""The paper's epoch-based termination detection algorithm (Fig. 7) and
its two Fig. 18 baselines, as one allreduce wave loop.

Each image repeatedly:

1. waits until it is *locally quiet* in the even epoch — every message it
   sent has been acknowledged delivered, and every message it received
   has completed its local work (Fig. 7 line 4);
2. advances into the odd epoch if not already hoisted there by an
   odd-tagged message (line 7);
3. joins a synchronous team allreduce of ``sent - completed`` over the
   even epoch (line 8);
4. folds the odd epoch into the even one on exit (line 10).

Global termination is detected when the reduction yields zero.  Theorem 1
bounds the waves by ``L + 1``, ``L`` being the longest chain of
transitively shipped functions (tested on adversarial chains).

The detectors differ only in how much of the line-4 wait they keep, and
so bracket the paper's ~2x Fig. 18 baseline (EXPERIMENTS.md): ``epoch``
keeps both clauses (fewest waves), ``wave_drain`` only received ==
completed (any poll loop drains its inbox; learning about *deliveries*
needs the paper's ack machinery), and ``wave_unbounded`` none (messages
in flight keep the sum nonzero for many more waves).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.tasks import Delay
from repro.core import collectives
from repro.core.finish import FinishFrame

#: ``wave_unbounded``'s poll pause between waves (one wire latency)
POLL_INTERVAL = 2.0e-6


def allreduce_waves(ctx, frame: FinishFrame,
                    quiet: Optional[Callable[[], bool]], suffix: str = "",
                    poll: float = 0.0) -> Generator[Any, Any, int]:
    """The Fig. 7 wave loop for one image; returns allreduce waves.

    ``quiet`` is the line-4 wait predicate (None skips the wait),
    ``suffix`` names the ``finish.allreduce*``/``finish.extra_waves*``
    stat keys, and ``poll`` pauses before a retried wave.  The ablation
    bench's ``machine.scratch["finish.allreduce_radix"]`` override of the
    reduction-tree radix reaches all three allreduce detectors."""
    machine = ctx.machine
    while True:
        # Line 4 (counter updates wake the condition).
        if quiet is not None:
            yield from frame.cond.wait_until(quiet)
        # Lines 6-8: enter the odd epoch, sum the cut over the even one.
        outstanding = frame.contribute()
        wave_start = machine.sim.now
        total = yield from collectives.allreduce(
            ctx, outstanding, op="sum", team=frame.team,
            radix=machine.scratch.get("finish.allreduce_radix", 2),
            _stat="finish.allreduce" + suffix,
        )
        if machine.tracer is not None:
            machine.tracer.span(ctx.rank, "finish wave", wave_start,
                                machine.sim.now - wave_start,
                                args={"outstanding": outstanding,
                                      "total": total})
        # Line 10: exit the allreduce — fold odd into even.
        frame.close_wave()
        if total == 0:
            return frame.rounds
        machine.stats.incr("finish.extra_waves" + suffix)
        if poll:
            yield Delay(poll)


def epoch_detector(ctx, frame: FinishFrame) -> Generator[Any, Any, int]:
    """Run the Fig. 7 algorithm for one image; returns allreduce waves.
    :func:`~repro.core.finish.finish_end` runs ``ft_epoch`` instead when
    a failure service is attached."""
    return (yield from allreduce_waves(ctx, frame, frame.even.locally_quiet))


def wave_drain_detector(ctx, frame: FinishFrame) -> Generator[Any, Any, int]:
    """Allreduce waves gated only on local completion of received
    messages (no delivery-ack precondition)."""
    even = frame.even
    return (yield from allreduce_waves(
        ctx, frame, lambda: even.received == even.completed, "_drain"))


def wave_unbounded_detector(ctx, frame: FinishFrame
                            ) -> Generator[Any, Any, int]:
    """Allreduce waves with no local-quiet precondition."""
    return (yield from allreduce_waves(ctx, frame, None, "_unbounded",
                                       POLL_INTERVAL))
