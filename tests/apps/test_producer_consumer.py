"""Tests for the cofence micro-benchmark (Fig. 11/12)."""

import pytest

from repro import run_spmd
from repro.apps.producer_consumer import (
    COPY_BYTES,
    FANOUT,
    PCConfig,
    VARIANTS,
    pc_kernel,
    pc_setup,
    run_producer_consumer,
)


class TestConfig:
    def test_paper_constants(self):
        assert COPY_BYTES == 80
        assert FANOUT == 5

    def test_invalid_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            PCConfig(variant="mutex")

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            PCConfig(iterations=0)


class TestVariants:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_completes(self, variant):
        result = run_producer_consumer(
            4, PCConfig(variant=variant, iterations=20))
        assert result.sim_time > 0
        assert result.variant == variant
        assert result.copies == 20 * FANOUT

    def test_fig12_ordering(self):
        """The paper's core claim: local data completion (cofence) beats
        local operation completion (events) beats global completion
        (finish)."""
        times = {}
        for variant in VARIANTS:
            result = run_producer_consumer(
                8, PCConfig(variant=variant, iterations=50))
            times[variant] = result.sim_time
        assert times["cofence"] < times["events"] < times["finish"]

    def test_finish_gap_grows_with_cores(self):
        """finish costs O(log p) latencies per round; the cofence/finish
        ratio must widen as the team grows."""
        ratios = {}
        for n in (4, 16):
            cf = run_producer_consumer(
                n, PCConfig(variant="cofence", iterations=30)).sim_time
            fi = run_producer_consumer(
                n, PCConfig(variant="finish", iterations=30)).sim_time
            ratios[n] = fi / cf
        assert ratios[16] > ratios[4]

    def test_finish_golden(self):
        """Pinned simulated time and run counters of the finish variant:
        host-side optimisations must leave the simulated program as is."""
        config = PCConfig(iterations=20, variant="finish")
        result = run_producer_consumer(8, config, seed=1)
        assert result.sim_time == 0.00044497440000000084
        machine, results = run_spmd(pc_kernel, 8, seed=1, args=(config,),
                                    setup=pc_setup)
        assert max(results) == result.sim_time
        summary = machine.summary()
        assert {k: summary[k] for k in (
            "events_processed", "messages", "finish_waves",
            "finish_blocks", "copies")} == {
            "events_processed": 1752, "messages": 646,
            "finish_waves": 312, "finish_blocks": 168, "copies": 100}

    def test_deterministic(self):
        a = run_producer_consumer(4, PCConfig(iterations=10), seed=3)
        b = run_producer_consumer(4, PCConfig(iterations=10), seed=3)
        assert a.sim_time == b.sim_time
