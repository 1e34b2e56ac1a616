"""Distributed termination detection algorithms.

The paper's contribution plus the baselines it is compared against:

- :mod:`repro.core.termination.epoch` — the Fig. 7 allreduce wave loop
  behind ``epoch`` (the paper's) and its Fig. 18 baselines
  ``wave_drain`` and ``wave_unbounded``, which keep less of the line-4
  wait precondition;
- :mod:`repro.core.termination.ft_epoch` — the fault-tolerant variant
  of the paper's detector (DESIGN §11): coordinator rounds over the
  alive membership instead of a team allreduce; ``finish_end`` runs it
  for ``epoch`` when a failure detector is attached;
- :mod:`repro.core.termination.four_counter` — Mattern's four-counter
  algorithm as used by AM++ (§V): double-counts sends/receives, always
  paying one extra global reduction;
- :mod:`repro.core.termination.vector_count` — the X10-style centralized
  scheme (§V): every image reports a per-destination vector to one owner,
  whose traffic grows as O(p²);
- :mod:`repro.core.termination.barrier_naive` — the provably *incorrect*
  wait-then-barrier scheme whose failure under transitive spawns (Fig. 5)
  motivated finish in the first place.

Each detector is a generator ``detector(ctx, frame) -> rounds`` run by
every team member inside :func:`repro.core.finish.finish_end`.
"""

from repro.core.termination.epoch import (epoch_detector,
                                          wave_drain_detector,
                                          wave_unbounded_detector)
from repro.core.termination.ft_epoch import ft_epoch_detector
from repro.core.termination.four_counter import four_counter_detector
from repro.core.termination.vector_count import vector_count_detector
from repro.core.termination.barrier_naive import barrier_naive_detector

_DETECTORS = {
    "epoch": epoch_detector,
    "ft_epoch": ft_epoch_detector,
    "wave_unbounded": wave_unbounded_detector,
    "wave_drain": wave_drain_detector,
    "four_counter": four_counter_detector,
    "vector_count": vector_count_detector,
    "barrier": barrier_naive_detector,
}


def get_detector(name: str):
    """Resolve a detector by name (see module docstring)."""
    try:
        return _DETECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown termination detector {name!r}; "
            f"expected one of {sorted(_DETECTORS)}"
        ) from None


__all__ = [
    "get_detector",
    "epoch_detector",
    "ft_epoch_detector",
    "wave_unbounded_detector",
    "wave_drain_detector",
    "four_counter_detector",
    "vector_count_detector",
    "barrier_naive_detector",
]
