import sys
sys.path.insert(0, "benchmarks")
from bench_weak_scaling import run_ra_point, run_uts_point

uts = run_uts_point(1024)
assert uts["fingerprint"] == "512cdf60fbf27457", uts
ra = run_ra_point(1024)
assert ra["fingerprint"] == "6094c9048b55e217", ra
print(f"scale smoke ok: uts {uts['wall_s']:.1f}s, "
      f"ra {ra['wall_s']:.1f}s at 1024 images")
