"""Mattern's four-counter algorithm, as used by AM++ (paper §V).

Every wave reduces the cumulative ``(sent, received)`` pair.  Termination
is declared when two *consecutive* waves observe identical, balanced
counts: the first wave establishes a candidate cut, the second confirms
no message crossed it.  The double-counting is what the paper points at —
"because this algorithm counts twice, it always incurs an extra global
reduction to detect termination; our algorithm does not pay this extra
cost."

We pair the algorithm with the same local-quiet precondition as the
paper's detector so the comparison isolates the counting scheme itself.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core import collectives
from repro.core.finish import FinishFrame


def four_counter_detector(ctx, frame: FinishFrame
                          ) -> Generator[Any, Any, int]:
    """Double-reduction termination detection; returns reduction waves."""
    prev: tuple[int, int] | None = None
    while True:
        yield from frame.cond.wait_until(
            lambda: frame.c_sent == frame.c_delivered
            and frame.c_received == frame.c_completed
        )
        totals = yield from collectives.allreduce(
            ctx, (frame.c_sent, frame.c_received),
            op=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            team=frame.team, _stat="finish.allreduce_four_counter",
        )
        frame.rounds += 1
        sent, received = totals
        if prev == (sent, received) and sent == received:
            return frame.rounds
        prev = (sent, received)
