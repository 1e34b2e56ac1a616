"""The repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uts --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures untraced reps, then installs the layer wrappers of
:mod:`spans` and replays the same reps traced; it prints the per-layer
metrics, writes the spans to ``.perfbench/spans/``, and fails the run if
a traced rep's deterministic outputs differ from its untraced twin (a
wrapper changed the program).

Each run generates its inputs from ``--seed``, runs one untimed warm-up
rep, then measures reps for ``--seconds``.  Earlier stdout lines give the
generated inputs and every metric with its unit and sample count; the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value", "unit"}}``).  The exit code is 0 only
when every rep passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: hard stop for measuring, well inside the 180 s a run may take
DEADLINE_S = 120.0
#: share of a --trace 1 run spent on the untraced reps
UNTRACED_SHARE = 0.35
#: Time of the calibration loop at the reference interpreter speed.  On
#: the shared hosts this benchmark runs on, interpreter speed drifts by
#: up to +-25% in phases of seconds to minutes; the loop, timed before
#: every rep, tracks those phases, and host-time metrics are reported at
#: the reference speed: rates times (loop time / CAL_REF_S), times
#: divided by it.
CAL_REF_S = 0.008


def calibrate() -> float:
    """Host seconds one fixed pure-Python loop takes right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc + i) % 1_000_003
    return perf_counter() - t0


def load_catalogue() -> dict:
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def measure(workload, seconds: float, min_reps: int, deadline: float,
            recorder=None) -> list:
    """Reps 0, 1, 2, ... until ``seconds`` have passed (and at least
    ``min_reps`` ran).  With a recorder, each rep is one traced run id
    inside a ``bench.rep`` span."""
    reps = []
    t_end = perf_counter() + seconds
    nid = recorder.name_id("bench.rep") if recorder is not None else -1
    while ((perf_counter() < t_end or len(reps) < min_reps)
           and perf_counter() < deadline):
        i = len(reps)
        cal_s = calibrate()
        if recorder is None:
            reps.append(workload.rep(i))
        else:
            recorder.run_id = i
            recorder.calls[nid] += 1
            recorder.push(nid)
            try:
                reps.append(workload.rep(i))
            finally:
                recorder.pop()
        reps[-1].cal_s = cal_s
    return reps


def _rate(rep) -> float:
    return rep.units / rep.wall_s if rep.wall_s > 0 else 0.0


def _slowdown(reps: list) -> float:
    """How much slower than the reference speed the host ran.  A mean:
    single loop times fall into a fast or a slow mode, and the reps ran
    through the same mixture of modes."""
    return statistics.fmean(r.cal_s for r in reps) / CAL_REF_S


def _ref_rate(reps: list) -> float:
    """Median rate over the reps, at the reference speed."""
    return statistics.median(_rate(r) for r in reps) * _slowdown(reps)


def end_to_end(workload, reps: list, warmup) -> dict:
    """{metric: (value, samples)}."""
    setups = [s for r in reps for s in r.setup_s]
    attempted = len(reps) + 1
    passed = sum(r.ok for r in reps) + warmup.ok
    slowdown = _slowdown(reps)
    sim_us = statistics.fmean(r.sim_us for r in reps)
    if workload.sim_is_host_time:
        sim_us /= slowdown
    return {
        "setup_s": (statistics.median(setups) / slowdown if setups else 0.0,
                    len(setups)),
        "units_per_s": (_ref_rate(reps), len(reps)),
        "sim_time_us": (sim_us, len(reps)),
        "peak_rss_mb": (workload.peak_rss_mb(), 1),
        "ok_frac": (passed / attempted, attempted),
    }


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(totals: dict, traced: list, untraced: list) -> tuple:
    """({metric: (value, samples)}, counts-only layers)."""
    from spans import layer_of

    def t(name):
        return totals.get(name, (0, 0.0, 0.0, 0.0, 0))

    def calls(name):
        return t(name)[0]

    def incl(name):
        return t(name)[1]

    def own(name):
        return t(name)[2]

    def sim_mean_us(name):
        _, _, _, sim_s, sim_n = t(name)
        return _per(sim_s, sim_n) * 1e6

    def matching(prefix):
        return [n for n in totals if n.startswith(prefix)]

    def layer_self(layer):
        return sum(v[2] for n, v in totals.items() if layer_of(n) == layer)

    counts = Counter()
    for r in traced:
        counts.update(r.counts)
    units = sum(r.units for r in traced)
    n = len(traced)
    events = counts["events"]
    blocks = counts["finish_blocks"]
    finish_h = matching("finish.h:")
    copy_h = matching("copy.h:")
    copy_entry = ("copy.init", "copy.get", "copy.put")
    copy_calls = sum(calls(c) for c in copy_entry)
    target_s = sorted(s for r in traced for s in r.extra.get("target_s", ()))
    schedules = len(target_s)
    campaigns = n if schedules else 0

    def pct(q):
        if not target_s:
            return 0.0
        return statistics.quantiles(target_s, n=10)[q // 10 - 1] if len(
            target_s) > 1 else target_s[0]

    def untraced_mean(key):
        values = [r.extra[key] for r in untraced if key in r.extra]
        return statistics.fmean(values) if values else 0.0

    metrics = {
        "sim.events_per_unit": _per(events, units),
        "sim.tasks_per_unit": _per(calls("sim.task_init"), units),
        "sim.host_us_per_event": _per(layer_self("sim"), events) * 1e6,
        "sim.self_s_per_unit": _per(layer_self("sim"), units),
        "net.msgs_per_unit": _per(counts["msgs"], units),
        "net.bytes_per_unit": _per(counts["bytes"], units),
        "net.send_s_per_msg": _per(incl("net.send"), calls("net.send")),
        "net.am_request_s_per_call": _per(incl("net.am_request_nb"),
                                          calls("net.am_request_nb")),
        "net.retransmits_per_unit": _per(counts["retransmits"], units),
        "net.drops_per_unit": _per(counts["drops"], units),
        "net.delivered_frac": _per(calls("net.am_dispatch"),
                                   calls("net.am_request_nb")),
        "spawn.calls_per_unit": _per(calls("spawn.init"), units),
        "spawn.init_s_per_call": _per(incl("spawn.init"),
                                      calls("spawn.init")),
        "spawn.exec_s_per_call": _per(own("spawn.h:spawn.exec"),
                                      calls("spawn.h:spawn.exec")),
        "spawn.recovered_per_unit": _per(counts["spawn_recovered"], units),
        "finish.blocks_per_unit": _per(blocks, units),
        "finish.rounds_per_block": _per(counts["finish_rounds"], blocks),
        "finish.end_s_per_block": _per(incl("finish.end"),
                                       calls("finish.end")),
        "finish.wait_us_per_block": sim_mean_us("finish.end"),
        "finish.coll_msgs_per_block": _per(sum(calls(h) for h in finish_h),
                                           blocks),
        "finish.coll_s_per_block": _per(sum(own(h) for h in finish_h),
                                        blocks),
        "copy.calls_per_unit": _per(copy_calls, units),
        "copy.init_s_per_call": _per(sum(incl(c) for c in copy_entry),
                                     copy_calls),
        "copy.handler_s_per_call": _per(sum(own(h) for h in copy_h),
                                        sum(calls(h) for h in copy_h)),
        "copy.get_us_per_call": sim_mean_us("copy.get"),
        "runtime.machine_init_s": _per(incl("runtime.machine_init"),
                                       calls("runtime.machine_init")),
        "runtime.launch_s": _per(incl("runtime.launch"),
                                 calls("runtime.launch")),
        "runtime.hb_msgs_per_unit": _per(calls("runtime.h:fail.hb"), units),
        "apps.self_s_per_unit": _per(layer_self("apps"), units),
        "explore.target_s_p50": pct(50),
        "explore.target_s_p90": pct(90),
        "explore.coverage_s_per_schedule": _per(
            sum(incl(c) for c in matching("explore.coverage.")), schedules),
        "explore.mutate_s_per_schedule": _per(incl("explore.mutate"),
                                              schedules),
        "explore.minimize_s": _per(incl("explore.minimize"), campaigns),
        "explore.verify_s": _per(incl("explore.verify"), campaigns),
        "explore.self_s_per_schedule": _per(layer_self("explore"),
                                            schedules),
        "explore.novel_frac": _per(calls("explore.corpus_add"), schedules),
        "explore.corpus_size": _per(
            sum(r.extra.get("corpus_size", 0) for r in traced), campaigns),
        "explore.features": _per(
            sum(r.extra.get("features", 0) for r in traced), campaigns),
        "explore.schedules_to_find": untraced_mean("schedules_to_find"),
        "explore.find_s": untraced_mean("find_s"),
        "backend.start_s": _per(incl("backend.start"),
                                calls("backend.start")),
        "backend.wait_s": _per(incl("backend.wait"), calls("backend.wait")),
        "backend.msgs_per_unit": _per(counts["backend_msgs"], units),
        "backend.bytes_per_unit": _per(counts["backend_bytes"], units),
        "trace.overhead_frac": 1.0 - _per(_ref_rate(traced),
                                          _ref_rate(untraced)),
        "trace.unattributed_frac": _per(
            own("bench.rep"), incl("bench.rep") - incl("bench.oracle")),
    }
    samples = {name: n for name in metrics}
    samples["explore.target_s_p50"] = samples["explore.target_s_p90"] = (
        schedules)
    samples["explore.schedules_to_find"] = samples["explore.find_s"] = len(
        untraced) if campaigns else 0

    # A layer the counts show at work but no span ever reached is
    # reported from counts only.
    evidence = {"sim": events, "net": counts["msgs"],
                "core.spawn": counts["spawns"],
                "core.finish": blocks, "core.copy": counts["copies"],
                "runtime": counts["machines"], "apps": units}
    spanned = Counter()
    for name, value in totals.items():
        spanned[layer_of(name)] += value[0]
    counts_only = sorted(layer for layer, seen in evidence.items()
                         if seen and not spanned[layer])
    return ({k: (v, samples[k]) for k, v in metrics.items()}, counts_only)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    # The checkout is measured as-is: no bytecode written into it.
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from workloads import WORKLOADS, Probe

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    catalogue = load_catalogue()
    deadline = perf_counter() + DEADLINE_S

    probe = Probe().install()
    try:
        workload = WORKLOADS[args.workload](args.seed, probe)
        print("perfbench inputs " + json.dumps(
            {"workload": args.workload, "unit": workload.unit,
             **workload.inputs}), flush=True)
        warmup = workload.rep(0)
        if args.trace == 0:
            reps = measure(workload, args.seconds, workload.min_reps,
                           deadline)
            metrics = end_to_end(workload, reps, warmup)
            print("perfbench host " + json.dumps({
                "slowdown": _slowdown(reps),
                "units_per_s_at_host_speed": statistics.median(
                    _rate(r) for r in reps)}), flush=True)
            specs = catalogue["end_to_end"]
            all_reps = [warmup] + reps
            perturbed = False
        else:
            metrics, all_reps, perturbed = traced_run(
                workload, warmup, args, deadline)
            specs = catalogue["per_layer"]
    finally:
        probe.uninstall()

    for rep in all_reps:
        if not rep.ok:
            print(f"perfbench failed rep: {rep.error or 'oracle mismatch'}",
                  flush=True)
    failed = sum(not r.ok for r in all_reps)
    correct = failed == 0 and not perturbed
    out = {}
    for spec in specs:
        value, samples = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"perfbench metric {spec['name']} = {value:.6g} "
              f"{spec['unit']} (samples={samples})")
    print(json.dumps({"correct": correct, "attempted": len(all_reps),
                      "failed": failed, "metrics": out}), flush=True)
    return 0 if correct else 1


def traced_run(workload, warmup, args, deadline) -> tuple:
    from spans import Recorder, Tracer

    untraced = measure(workload, args.seconds * UNTRACED_SHARE, 1, deadline)
    recorder = Recorder()
    tracer = Tracer(recorder).install()
    workload.recorder = recorder
    recorder.active = True
    try:
        traced = measure(workload, args.seconds * (1 - UNTRACED_SHARE), 1,
                         deadline, recorder)
    finally:
        recorder.active = False
        workload.recorder = None
        tracer.uninstall()

    mismatched = [i for i, (u, t) in enumerate(zip(untraced, traced))
                  if u.ok and t.ok and u.fingerprint != t.fingerprint]
    metrics, counts_only = per_layer(recorder.totals(), traced, untraced)
    path = recorder.write(os.path.join(
        ROOT, ".perfbench", "spans",
        f"{args.workload}-seed{args.seed}.npz"))
    print("perfbench trace " + json.dumps({
        "spans_file": os.path.relpath(path, ROOT),
        "spans_kept": len(recorder.s_name),
        "spans_dropped": recorder.dropped,
        "counts_only_layers": {
            layer: ("runs in forked worker processes, which wrappers "
                    "installed from outside cannot record"
                    if args.workload == "process" else
                    "entry point bound at import time, unreachable by "
                    "wrapping from outside")
            for layer in counts_only},
        "non_perturbation": {"compared_reps": min(len(untraced),
                                                  len(traced)),
                             "mismatched_reps": mismatched},
    }), flush=True)
    return metrics, [warmup] + untraced + traced, bool(mismatched)


if __name__ == "__main__":
    sys.exit(main())
