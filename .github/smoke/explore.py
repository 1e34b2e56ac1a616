from repro.apps.ordering_bug import (make_ordering_bug_target,
                                     run_ordering_bug)
from repro.explore import (Explorer, PCTStrategy,
                           RandomWalkStrategy, Schedule,
                           check_replay_determinism)

# the bug must be invisible under the baseline schedule
assert run_ordering_bug().ok

target = make_ordering_bug_target()
explorer = Explorer(target, budget=500)

# budgeted search: both strategies must find the seeded bug
for strategy in (RandomWalkStrategy(seed=1), PCTStrategy(seed=2)):
    report = explorer.run_strategy(strategy)
    assert report.found, (strategy.name, report.to_json())
    assert report.outcome.kind == "invariant", report.outcome
    minimized = report.minimized
    assert minimized.nonzero_choices() <= 3, minimized

    # the emitted artifact must replay deterministically
    minimized.save("/tmp/repro_schedule.json")
    loaded = Schedule.load("/tmp/repro_schedule.json")
    assert check_replay_determinism(target, loaded, times=2)
    print(f"{strategy.name}: found at run {report.found_at}, "
          f"minimized to {minimized.nonzero_choices()} "
          f"non-default choices, replay identical")
