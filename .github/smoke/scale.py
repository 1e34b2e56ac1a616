import sys
sys.path.insert(0, "benchmarks")
from bench_weak_scaling import run_ra_point, run_uts_point
from time import perf_counter

from repro import run_spmd
from repro.apps.producer_consumer import PCConfig, pc_kernel, pc_setup

uts = run_uts_point(1024)
assert uts["fingerprint"] == "512cdf60fbf27457", uts
ra = run_ra_point(1024)
assert ra["fingerprint"] == "6094c9048b55e217", ra
# A team-wide finish per round, nested in the kernel's outer finish: the
# containment check of every nested block runs on a 1024-member team.
t0 = perf_counter()
machine, results = run_spmd(
    pc_kernel, 1024, seed=1, setup=pc_setup,
    args=(PCConfig(iterations=20, variant="finish"),))
pc_wall = perf_counter() - t0
pc = machine.summary()
assert (max(results), pc["messages"], pc["finish_waves"], pc["copies"]) == (
    0.000836704, 45112, 22528, 100), pc
print(f"scale smoke ok: uts {uts['wall_s']:.1f}s, "
      f"ra {ra['wall_s']:.1f}s, pc-finish {pc_wall:.1f}s at 1024 images")
