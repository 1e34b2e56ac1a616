"""The benchmark's workloads, their inputs and their correctness oracles.

Every input is generated from the one ``--seed``: the UTS tree seeds, the
RandomAccess stream offset, the producer-consumer seed, the fuzzing seeds
and the machines' seeds.  The program under test receives only these
generated inputs, through the public API of ``repro.apps``,
``repro.explore.fuzz`` and ``repro.backend``.

A workload is run as repetitions ("reps").  Each rep calls the program
once (RandomAccess: once per variant), times the call, and checks the
output against an oracle; a rep whose check fails or that raises counts
as failed rather than aborting the run.  Reps of the simulated workloads
repeat the same input; ``fuzz`` runs one campaign per rep, rep ``i`` with
fuzzing seed ``base + i``, so a traced pass can replay exactly the
campaigns of an untraced pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import resource
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

#: counters taken from every simulated machine a rep runs
_SUMMARY_COUNTS = (
    ("events", "events_processed"),
    ("msgs", "messages"),
    ("bytes", "bytes"),
    ("retransmits", "retransmits"),
    ("drops", "drops"),
    ("spawns", "spawns"),
    ("copies", "copies"),
    ("finish_blocks", "finish_blocks"),
    ("finish_rounds", "finish_waves"),
)


@dataclasses.dataclass
class Rep:
    """What one repetition measured."""

    units: int
    wall_s: float
    setup_s: list
    sim_us: float
    ok: bool
    fingerprint: str
    counts: Counter
    extra: dict = dataclasses.field(default_factory=dict)
    error: str = ""
    #: host seconds of the calibration loop timed just before this rep
    cal_s: float = 0.0


class Probe:
    """Light hooks present in untraced and traced runs alike: one call
    per simulated run (``Machine.run``) or per process-backend launch,
    never per event.  They give set-up time (workload call until the
    first simulated event can run, or until the process fleet has
    started), the machine to read results and ``summary()`` counts from,
    and the process run's summed worker stats."""

    def __init__(self):
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.run_entered: list[float] = []
        self.start_returned: list[float] = []
        self.machine = None
        self.parallel_run = None
        self.counts: Counter = Counter()
        self.digest = hashlib.sha256()

    def install(self) -> "Probe":
        from repro.backend.parallel import ProcessRunner
        from repro.runtime.program import Machine

        run, start, wait = Machine.run, ProcessRunner.start, ProcessRunner.wait
        probe = self

        def probed_run(machine, max_events=None):
            probe.run_entered.append(perf_counter())
            probe.machine = machine
            try:
                return run(machine, max_events)
            finally:
                probe._collect(machine)

        def probed_start(runner):
            out = start(runner)
            probe.start_returned.append(perf_counter())
            return out

        def probed_wait(runner, *args, **kwargs):
            probe.parallel_run = wait(runner, *args, **kwargs)
            return probe.parallel_run

        self._saved = [(Machine, "run", run), (ProcessRunner, "start", start),
                       (ProcessRunner, "wait", wait)]
        Machine.run = probed_run
        ProcessRunner.start = probed_start
        ProcessRunner.wait = probed_wait
        return self

    def uninstall(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []

    def _collect(self, machine) -> None:
        summary = machine.summary()
        for key, field in _SUMMARY_COUNTS:
            self.counts[key] += summary[field]
        self.counts["spawn_recovered"] += machine.stats["spawn.recovered"]
        self.counts["machines"] += 1
        self.digest.update(repr(sorted(summary.items())).encode())


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _tree_in_window(rng: random.Random, lo: int, hi: int, depth: int):
    """First tree (in the seed's candidate order) whose size is in
    [lo, hi), with that size as ``sequential_tree_size`` counts it.  UTS
    tree sizes spread over orders of magnitude between seeds, and
    throughput and simulated time depend on size, so the seed picks among
    trees of one size class.  Candidates are counted only up to ``hi``."""
    from repro.apps import TreeParams, sequential_tree_size
    from repro.apps.uts import expand, root_descriptor

    while True:
        tree = TreeParams(b0=4.0, max_depth=depth,
                          seed=rng.randrange(1, 2 ** 31))
        count, stack = 0, [(root_descriptor(tree), 0)]
        while stack and count < hi:
            desc, level = stack.pop()
            count += 1
            stack.extend(expand(desc, level, tree))
        if lo <= count < hi:
            return tree, sequential_tree_size(tree)


class Workload:
    """Base: ``rep(i)`` runs and checks repetition ``i``."""

    name = ""
    unit = ""
    #: measured reps at least (a forest workload covers every tree)
    min_reps = 3
    #: the program reports host wall time, not simulated time, as sim_time
    sim_is_host_time = False

    def __init__(self, seed: int, probe: Probe):
        self.seed = seed
        self.probe = probe
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.recorder = None      # set while a traced pass runs
        self.inputs: dict = {"seed": seed}
        #: oracle values; the self-test corrupts one to prove the checks
        self.expected: dict = {}

    def rep(self, i: int) -> Rep:
        self.probe.reset()
        try:
            return self._rep(i)
        except Exception as exc:  # noqa: BLE001 - a failed rep, counted
            return Rep(units=0, wall_s=0.0, setup_s=[], sim_us=0.0,
                       ok=False, fingerprint="", counts=Counter(),
                       error=f"{type(exc).__name__}: {exc}")

    def _rep(self, i: int) -> Rep:
        raise NotImplementedError

    def _paused(self, fn: Callable, *args, **kwargs):
        """Run an oracle check as one ``bench.oracle`` span, with the
        layer spans it would cause paused."""
        rec = self.recorder
        if rec is None or not rec.active:
            return fn(*args, **kwargs)
        rec.push(rec.name_id("bench.oracle"))
        rec.active = False
        try:
            return fn(*args, **kwargs)
        finally:
            rec.active = True
            rec.pop()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class UTS(Workload):
    """UTS work stealing on 256 simulated images, one finish around the
    whole search; rep ``i`` searches tree ``i mod TREES`` of a forest."""

    name = "uts"
    unit = "tree nodes"
    IMAGES = 256
    #: a small tree's critical path over 256 images depends on its shape
    #: (simulated time differs by up to 1.6x between trees of one size),
    #: so the metrics average over a forest of shapes
    TREES = 12
    min_reps = TREES

    def __init__(self, seed, probe):
        super().__init__(seed, probe)
        from repro.apps import UTSConfig

        trees = [_tree_in_window(self.rng, 5000, 6000, depth=6)
                 for _ in range(self.TREES)]
        self.configs = [UTSConfig(tree=tree) for tree, _ in trees]
        self.expected["nodes"] = [size for _, size in trees]
        self.inputs.update(images=self.IMAGES, tree_depth=6,
                           tree_seeds=[tree.seed for tree, _ in trees])

    def _rep(self, i):
        from repro.apps import run_uts

        k = i % self.TREES
        t0 = perf_counter()
        r = run_uts(self.IMAGES, self.configs[k])
        wall = perf_counter() - t0
        p = self.probe
        return Rep(units=r.total_nodes, wall_s=wall,
                   setup_s=[p.run_entered[0] - t0], sim_us=r.sim_time * 1e6,
                   ok=r.total_nodes == self.expected["nodes"][k],
                   fingerprint=_digest(dataclasses.astuple(r),
                                       p.digest.hexdigest()),
                   counts=Counter(p.counts))


class RandomAccess(Workload):
    """RandomAccess at 64 images, both variants on one HPCC stream."""

    name = "ra"
    unit = "table updates"
    IMAGES = 64

    def __init__(self, seed, probe):
        super().__init__(seed, probe)
        from repro.apps import RAConfig
        from repro.apps.randomaccess import reference_table

        offset = self.rng.randrange(1, 2 ** 40)
        common = dict(log2_local_table=10, updates_per_image=96,
                      stream_offset=offset)
        self.configs = (
            RAConfig(variant="function-shipping", bunch_size=32, **common),
            RAConfig(variant="get-update-put", window=16, **common))
        self.inputs.update(images=self.IMAGES, **common)
        self.reference = reference_table(self.IMAGES, self.configs[0])
        self.expected["fs_table_digest"] = _table_digest(self.reference)
        # get-update-put races by design; its checksum and lost-update
        # count are fixed by the first rep and must then repeat
        self.expected["gup"] = None

    def _table(self):
        import numpy as np

        table = self.probe.machine.coarray_by_name("ra_table")
        return np.concatenate([table.local_at(r)
                               for r in range(self.IMAGES)])

    def _rep(self, i):
        from repro.apps import run_randomaccess
        import numpy as np

        results, setups, tables, digests, counts = [], [], [], [], Counter()
        wall = 0.0
        for config in self.configs:
            self.probe.reset()
            t0 = perf_counter()
            r = run_randomaccess(self.IMAGES, config)
            wall += perf_counter() - t0
            setups.append(self.probe.run_entered[0] - t0)
            tables.append(self._table())
            results.append(r)
            digests.append(self.probe.digest.hexdigest())
            counts.update(self.probe.counts)
        fs, gup = results
        lost = int(np.count_nonzero(tables[1] != self.reference))
        if self.expected["gup"] is None:
            self.expected["gup"] = (gup.checksum, lost)
        ok = (_table_digest(tables[0]) == self.expected["fs_table_digest"]
              and (gup.checksum, lost) == self.expected["gup"])
        return Rep(units=fs.total_updates + gup.total_updates, wall_s=wall,
                   setup_s=setups,
                   sim_us=(fs.sim_time + gup.sim_time) * 1e6, ok=ok,
                   fingerprint=_digest(dataclasses.astuple(fs),
                                       dataclasses.astuple(gup), lost,
                                       digests),
                   counts=counts, extra={"lost_updates": lost})


def _table_digest(table) -> str:
    return hashlib.sha256(table.tobytes()).hexdigest()


class ProducerConsumer(Workload):
    """The Fig. 11 producer-consumer, finish variant, at 64 images."""

    name = "pc-finish"
    unit = "producer rounds"
    IMAGES = 64
    ROUNDS = 150

    def __init__(self, seed, probe):
        super().__init__(seed, probe)
        from repro.apps import PCConfig
        from repro.apps.producer_consumer import FANOUT

        self.config = PCConfig(iterations=self.ROUNDS, variant="finish")
        self.pc_seed = self.rng.randrange(2 ** 31)
        self.inputs.update(images=self.IMAGES, rounds=self.ROUNDS,
                           pc_seed=self.pc_seed)
        self.expected["copies"] = self.ROUNDS * FANOUT

    def _rep(self, i):
        from repro.apps import run_producer_consumer

        t0 = perf_counter()
        r = run_producer_consumer(self.IMAGES, self.config,
                                  seed=self.pc_seed)
        wall = perf_counter() - t0
        p = self.probe
        return Rep(units=r.iterations, wall_s=wall,
                   setup_s=[p.run_entered[0] - t0], sim_us=r.sim_time * 1e6,
                   ok=r.copies == self.expected["copies"],
                   fingerprint=_digest(dataclasses.astuple(r),
                                       p.digest.hexdigest()),
                   counts=Counter(p.counts))


class TargetProbe:
    """What the benchmark's fuzz-target factory records about each call
    the fuzz loop makes (minimizer and verifier replays are not loop
    calls)."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.first_call: Optional[float] = None
        self.loop_end: list[float] = []
        self.loop_s: list[float] = []
        self.loop_sim_s = 0.0
        self.digest = hashlib.sha256()


def make_fuzz_target(probe: TargetProbe, **kwargs):
    """The benchmark-side factory the fuzzing service builds its target
    from: ``make_recovery_bug_target`` with its real crash menu, each
    call timed (and traced as ``explore.target`` in a traced pass)."""
    from repro.apps.recovery_bug import make_recovery_bug_target
    from repro.explore.schedule import RecordingSource

    target = make_recovery_bug_target(**kwargs)
    rec = probe.recorder
    nid = rec.name_id("explore.target") if rec is not None else -1

    def timed_target(source):
        t0 = perf_counter()
        if probe.first_call is None:
            probe.first_call = t0
        traced = rec is not None and rec.active
        if traced:
            rec.calls[nid] += 1
            rec.push(nid)
        try:
            outcome = target(source)
        finally:
            if traced:
                rec.pop()
        t1 = perf_counter()
        if isinstance(source, RecordingSource):
            probe.loop_end.append(t1)
            probe.loop_s.append(t1 - t0)
            probe.loop_sim_s += outcome.sim_time
            probe.digest.update(outcome.fingerprint.encode())
        return outcome

    timed_target.fault_config = getattr(target, "fault_config", None)
    return timed_target


class Fuzz(Workload):
    """Inline coverage-guided fuzzing of the seeded recovery bug, one
    campaign (until the first verified finding) per rep."""

    name = "fuzz"
    unit = "schedules"
    BUDGET = 2000

    def __init__(self, seed, probe):
        super().__init__(seed, probe)
        self.base = self.rng.randrange(2 ** 20)
        self.inputs.update(fuzz_seed_base=self.base, budget=self.BUDGET)
        self.expected["finding_kind"] = "invariant"

    def _rep(self, i):
        from repro.explore.fuzz import FuzzConfig, FuzzService, TargetSpec

        tp = TargetProbe(self.recorder)
        config = FuzzConfig(budget=self.BUDGET, workers=0,
                            seed=self.base + i, max_findings=1)
        t0 = perf_counter()
        spec = TargetSpec("workloads:make_fuzz_target", {"probe": tp})
        report = FuzzService(spec, config).run()
        wall = perf_counter() - t0
        counts = Counter(self.probe.counts)
        machines_digest = self.probe.digest.hexdigest()
        found = report.first_find_at
        ok = self._paused(self._check, report)
        n = len(tp.loop_s)
        extra = {
            "schedules_to_find": found or 0,
            "find_s": (tp.loop_end[found - 1] - t0) if found else 0.0,
            "target_s": tp.loop_s,
            "corpus_size": report.corpus_size,
            "features": report.coverage_features,
        }
        finding = report.findings[0].fingerprint if report.findings else ""
        return Rep(units=report.schedules_run, wall_s=wall,
                   setup_s=[tp.first_call - t0],
                   sim_us=tp.loop_sim_s * 1e6 / n if n else 0.0, ok=ok,
                   fingerprint=_digest(
                       report.schedules_run, found, report.corpus_size,
                       report.coverage_features, finding,
                       tp.digest.hexdigest(), machines_digest),
                   counts=counts, extra=extra)

    def _check(self, report) -> bool:
        """The finding is verified, and its minimized schedule replays
        strictly to the same failure."""
        from repro.apps.recovery_bug import make_recovery_bug_target

        if not report.findings:
            return False
        finding = report.findings[0]
        if not finding.verified or finding.kind != self.expected[
                "finding_kind"]:
            return False
        schedule = finding.minimized
        outcome = make_recovery_bug_target()(schedule.source(strict=True))
        return (outcome.failed and outcome.kind == finding.kind
                and outcome.fingerprint
                == (schedule.outcome or {}).get("fingerprint"))


class Process(Workload):
    """UTS on the process backend with 2 workers and a tiny node cost,
    one rep running each tree of a small forest once."""

    name = "process"
    unit = "tree nodes"
    sim_is_host_time = True
    WORKERS = 2
    #: trees per rep: with two workers a tree's shape sets how well its
    #: work splits (rates differ by up to 2x between trees of one size),
    #: so a rep spans many shapes
    TREES = 8

    def __init__(self, seed, probe):
        super().__init__(seed, probe)
        from repro.apps import UTSConfig, run_uts

        # Trees large enough that runtime work, not the workers' start-up
        # and exit, sets the wall time.
        self.configs, self.expected["nodes"] = [], []
        for _ in range(self.TREES):
            tree, size = _tree_in_window(self.rng, 20000, 30000, depth=7)
            config = UTSConfig(tree=tree, node_cost=1e-7)
            oracle = run_uts(self.WORKERS, config)
            if oracle.total_nodes != size:
                raise RuntimeError(
                    f"simulator oracle counted {oracle.total_nodes} nodes "
                    f"of tree {tree.seed}, sequential count is {size}")
            self.configs.append(config)
            self.expected["nodes"].append(oracle.total_nodes)
        self.inputs.update(workers=self.WORKERS, node_cost=1e-7,
                           tree_depth=7,
                           tree_seeds=[c.tree.seed for c in self.configs])

    def _rep(self, i):
        from repro.apps import run_uts

        nodes, setups, counts = [], [], Counter()
        wall = sim_us = 0.0
        for config in self.configs:
            self.probe.reset()
            t0 = perf_counter()
            r = run_uts(self.WORKERS, config, backend="process")
            wall += perf_counter() - t0
            setups.append(self.probe.start_returned[0] - t0)
            sim_us += r.sim_time * 1e6
            nodes.append(r.total_nodes)
            run = self.probe.parallel_run
            stats = run.stats
            # the workers' own machines and transports, summed by the
            # runner
            counts.update(events=run.sim.events_processed,
                          msgs=stats["net.msgs"], bytes=stats["net.bytes"],
                          backend_msgs=stats["net.msgs"],
                          backend_bytes=stats["net.bytes"],
                          spawns=stats["spawn.executed"],
                          copies=stats["copy.initiated"],
                          finish_blocks=stats["finish.completed"],
                          finish_rounds=stats["finish.rounds_total"],
                          machines=self.WORKERS)
        return Rep(units=sum(nodes), wall_s=wall, setup_s=setups,
                   sim_us=sim_us, ok=nodes == self.expected["nodes"],
                   # real processes interleave freely; only the node
                   # counts are schedule-invariant
                   fingerprint=_digest(nodes), counts=counts)

    def peak_rss_mb(self) -> float:
        """This process plus its workers: the largest worker's peak
        stands in for each of them."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + self.WORKERS * child) / 1024.0


WORKLOADS = {w.name: w for w in (UTS, RandomAccess, ProducerConsumer, Fuzz,
                                 Process)}
