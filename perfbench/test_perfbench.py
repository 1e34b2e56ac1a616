"""Self-tests of the benchmark: its oracles fail when they should, the
non-perturbation check notices a changed program, and BENCHMARK.json
agrees with the metric catalogue.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

#: one oracle value per workload, and a wrong value for it
WRONG = {
    "uts": ("nodes", lambda v: [n + 1 for n in v]),
    "ra": ("fs_table_digest", lambda v: "0" * len(v)),
    "pc-finish": ("copies", lambda v: v + 1),
    "fuzz": ("finding_kind", lambda v: "deadlock"),
    "process": ("nodes", lambda v: [n + 1 for n in v]),
}


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _patch_workload(monkeypatch, name, adjust):
    base = workloads.WORKLOADS[name]

    class Patched(base):
        def __init__(self, seed, probe):
            super().__init__(seed, probe)
            adjust(self)

    monkeypatch.setitem(workloads.WORKLOADS, name, Patched)
    return Patched


@pytest.mark.parametrize("name", sorted(WRONG))
def test_wrong_expected_value_fails_every_rep(name, monkeypatch, capsys):
    key, corrupt = WRONG[name]

    def adjust(w):
        w.expected[key] = corrupt(w.expected[key])

    _patch_workload(monkeypatch, name, adjust)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1"])
    result = _result(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["attempted"] >= 4
    assert result["failed"] == result["attempted"]     # failed_frac = 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_traced_run_reproduces_untraced(capsys):
    code = run.main(["--workload", "pc-finish", "--seed", "3",
                     "--seconds", "0.5", "--trace", "1"])
    result = _result(capsys)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {
        m["name"] for m in run.load_catalogue()["per_layer"]}


def test_perturbed_traced_run_fails(monkeypatch, capsys):
    """A traced rep whose deterministic output differs from its untraced
    twin fails the run (here the difference is injected)."""
    base = workloads.WORKLOADS["pc-finish"]

    class Perturbed(base):
        def _rep(self, i):
            rep = super()._rep(i)
            if self.recorder is not None:
                rep.fingerprint += "-changed"
            return rep

    monkeypatch.setitem(workloads.WORKLOADS, "pc-finish", Perturbed)
    code = run.main(["--workload", "pc-finish", "--seed", "3",
                     "--seconds", "0.5", "--trace", "1"])
    out = capsys.readouterr().out.splitlines()
    trace = json.loads(next(line for line in out
                            if line.startswith("perfbench trace "))
                       [len("perfbench trace "):])
    assert code == 1
    assert trace["non_perturbation"]["mismatched_reps"]
    assert not json.loads(out[-1])["correct"]


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    catalogue = run.load_catalogue()
    assert bench["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in catalogue["end_to_end"]]
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for m in catalogue["per_layer"]]
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    names = {m["name"] for m in catalogue["end_to_end"]
             + catalogue["per_layer"]}
    for m in catalogue["per_layer"]:
        for move in m["moves"]:
            assert move["metric"] in names
            assert set(move["workloads"]) <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
