from repro.apps.recovery_bug import make_recovery_bug_target
from repro.explore import Schedule, check_replay_determinism
from repro.explore.fuzz import (FuzzConfig, FuzzService,
                                TargetSpec)

spec = TargetSpec(
    "repro.apps.ordering_bug:make_ordering_bug_target", {})
config = FuzzConfig(budget=400, workers=2, seed=0,
                    sync_every=25, max_findings=1)
report = FuzzService(spec, config).run()
assert report.found, report.to_json()
finding = report.findings[0]
assert finding.verified and finding.kind == "invariant", \
    finding.to_json()
print(f"pool found ordering_bug at schedule "
      f"{finding.found_at}/{report.schedules_run} "
      f"({report.workers} workers)")

path = "tests/data/findings/invariant-f8d9bad3cbfc.json"
schedule = Schedule.load(path)
target = make_recovery_bug_target()
assert check_replay_determinism(target, schedule, times=2)
outcome = target(schedule.source(strict=True))
assert outcome.failed and outcome.kind == "invariant", outcome
print("committed finding replays:", outcome.message)
