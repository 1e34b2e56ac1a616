"""Tests for the termination-detection algorithms, including the Fig. 5
barrier failure and the Theorem 1 bound."""

import pytest

from repro import FaultPlan, run_spmd
from repro.apps.uts import TreeParams, UTSConfig, run_uts
from repro.core.finish import FinishUsageError
from repro.core.termination import get_detector
from repro.runtime.failure import FailureConfig
from repro.sim.tasks import TaskFailed


def test_detector_registry():
    for name in ("epoch", "wave_unbounded", "wave_drain", "four_counter",
                 "vector_count", "barrier"):
        assert callable(get_detector(name))
    with pytest.raises(ValueError, match="unknown termination detector"):
        get_detector("oracle")


def _chain_kernel(detector, chain_len=3):
    def hop(img, remaining):
        yield from img.compute(2e-6)
        if remaining > 1:
            yield from img.spawn(hop, (img.team_rank() + 1) % img.nimages,
                                 remaining - 1)

    def kernel(img):
        yield from img.finish_begin()
        if img.rank == 0:
            yield from img.spawn(hop, 1, chain_len)
        rounds = yield from img.finish_end(detector=detector)
        return rounds

    return kernel


class TestCorrectDetectors:
    @pytest.mark.parametrize("detector", ["epoch", "wave_unbounded",
                                          "wave_drain", "four_counter",
                                          "vector_count"])
    def test_detects_only_after_all_work_done(self, spmd, detector):
        done_at = []

        def remote(img):
            yield from img.compute(5e-5)
            done_at.append(img.now)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(remote, 1)
            yield from img.finish_end(detector=detector)
            return img.now

        _m, results = spmd(kernel, n=4)
        assert done_at, "remote work never ran"
        assert min(results) >= done_at[0]

    @pytest.mark.parametrize("detector", ["epoch", "wave_unbounded",
                                          "wave_drain", "four_counter",
                                          "vector_count"])
    def test_transitive_chain_detected(self, spmd, detector):
        _m, results = spmd(_chain_kernel(detector, chain_len=4), n=4)
        assert all(r >= 1 for r in results)

    def test_epoch_beats_unbounded_on_rounds(self, spmd):
        """The Fig. 18 comparison: the wait precondition cuts waves."""
        _m, ours = spmd(_chain_kernel("epoch", chain_len=6), n=4, seed=1)
        _m, base = spmd(_chain_kernel("wave_unbounded", chain_len=6), n=4,
                        seed=1)
        assert max(ours) <= max(base)

    def test_four_counter_pays_extra_round_on_empty_finish(self, spmd):
        def kernel_epoch(img):
            yield from img.finish_begin()
            return (yield from img.finish_end(detector="epoch"))

        def kernel_fc(img):
            yield from img.finish_begin()
            return (yield from img.finish_end(detector="four_counter"))

        _m, ours = spmd(kernel_epoch, n=4)
        _m, fc = spmd(kernel_fc, n=4)
        assert ours == [1] * 4
        assert fc == [2] * 4  # double-counting: always one extra reduction

    def test_vector_count_owner_traffic_grows(self, spmd):
        """The §V criticism of X10's scheme: O(p) vectors of size O(p)
        concentrate at the owner."""
        owner_bytes = {}
        for n in (4, 8):
            m, _ = spmd(_chain_kernel("vector_count", chain_len=2), n=n)
            owner_bytes[n] = m.stats["term.vector.owner_bytes"]
        # doubling p more than doubles owner traffic (vector size grows too)
        assert owner_bytes[8] > 2 * owner_bytes[4]


class TestBarrierFailure:
    def test_fig5_barrier_misses_transitive_spawn(self, spmd):
        """Fig. 5: p ships f1 to q; f1 ships f2 to r.  A barrier-based
        finish lets r exit before f2 lands."""
        f2_done = []

        def f2(img):
            yield from img.compute(1e-6)
            f2_done.append(img.now)

        def f1(img):
            yield from img.compute(5e-5)  # long enough to straddle the barrier
            yield from img.spawn(f2, 2)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(f1, 1)
            yield from img.finish_end(detector="barrier")
            return (img.now, list(f2_done))

        _m, results = spmd(kernel, n=3)
        exit_time, seen = results[2]
        # image r (rank 2) left the "finish" before f2 completed: unsound.
        assert seen == []
        assert f2_done, "f2 eventually ran (after the broken barrier exit)"
        assert exit_time < f2_done[0]

    def test_epoch_fixes_the_same_scenario(self, spmd):
        f2_done = []

        def f2(img):
            yield from img.compute(1e-6)
            f2_done.append(img.now)

        def f1(img):
            yield from img.compute(5e-5)
            yield from img.spawn(f2, 2)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(f1, 1)
            yield from img.finish_end(detector="epoch")
            return img.now

        _m, results = spmd(kernel, n=3)
        assert f2_done and min(results) >= f2_done[0]


class TestTheorem1:
    @pytest.mark.parametrize("chain_len", [1, 2, 3, 5, 8])
    def test_wave_bound_holds(self, spmd, chain_len):
        _m, results = spmd(_chain_kernel("epoch", chain_len=chain_len), n=6)
        assert results[0] <= chain_len + 1

    def test_wave_bound_tight_on_adversarial_chain(self, spmd, fast_params):
        """With work long enough that each hop straddles a reduction wave,
        the detector needs close to L+1 waves — and never more."""

        def hop(img, remaining):
            # Out-wait a full allreduce so every hop forces a new wave.
            yield from img.compute(5e-5)
            if remaining > 1:
                yield from img.spawn(hop, (img.team_rank() + 1) % img.nimages,
                                     remaining - 1)

        def kernel(img):
            yield from img.finish_begin()
            if img.rank == 0:
                yield from img.spawn(hop, 1, 4)
            rounds = yield from img.finish_end()
            return rounds

        _m, results = spmd(kernel, n=4, params=fast_params(4))
        assert 2 <= results[0] <= 5  # L=4 -> bound L+1=5

    def test_no_jitter_dependence(self, spmd, fast_params):
        """The algorithm assumes no FIFO channels: heavy latency jitter
        (which reorders messages) must not break detection."""
        params = fast_params(4, jitter=0.8)
        _m, results = spmd(_chain_kernel("epoch", chain_len=5), n=4,
                           params=params)
        assert all(r >= 1 for r in results)


#: (finish_rounds, sim_time) per detector for one fixed UTS run; every
#: detector counts the same 4845-node tree.  Pinned exactly: a refactor
#: of the detectors must not move a single wave or simulated picosecond.
GOLDEN_UTS = {
    "epoch": (10, 0.0013204304000000123),
    "wave_drain": (16, 0.0013258088000000137),
    "wave_unbounded": (97, 0.0013316648000000115),
    "four_counter": (6, 0.0013319504000000094),
    "vector_count": (14, 0.001324516800000013),
}


@pytest.mark.parametrize("detector", sorted(GOLDEN_UTS))
def test_detector_golden_uts(detector):
    r = run_uts(8, UTSConfig(tree=TreeParams(b0=4, max_depth=6, seed=19),
                             detector=detector), seed=1)
    assert (r.total_nodes, r.finish_rounds, r.sim_time) == (
        4845, *GOLDEN_UTS[detector])


@pytest.mark.parametrize("detector", ["wave_drain", "wave_unbounded",
                                      "four_counter", "vector_count",
                                      "barrier"])
def test_non_fault_tolerant_detector_refused_under_failure_detection(
        detector):
    """Only epoch/ft_epoch survive a crash; the others would wait on the
    dead image forever (or, for barrier, return unsoundly), so finish
    refuses them with a typed error instead."""

    def work(img):
        yield from img.compute(1e-3)

    def kernel(img):
        yield from img.finish_begin()
        if img.rank == 0:
            yield from img.spawn(work, 2)
        yield from img.finish_end(detector=detector)

    with pytest.raises(TaskFailed) as info:
        run_spmd(kernel, n_images=4, faults=FaultPlan().crash_at(2, 1e-4),
                 failure_detection=FailureConfig(), max_events=20_000)
    cause = info.value.__cause__
    assert isinstance(cause, FinishUsageError), cause
    assert repr(detector) in str(cause)
