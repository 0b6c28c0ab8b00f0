"""End-to-end runs of the benchmark on tiny inputs."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
from conftest import ROOT


def _run(monkeypatch, *argv):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(list(argv))
    return rc, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_passes_the_oracle(workload, monkeypatch):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, result = _run(monkeypatch, "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--smoke")
        assert rc == 0
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


def test_failed_and_mismatched_calls_are_counted(workdir):
    inp = inputs.make_inputs("phase_opt", 3, ROOT, workdir, smoke=True)
    ok = {"rc": 0, "error": None}
    result = {
        "points_per_command": 1,
        "warmup": ok,
        "commands": [
            {"command": 0, "wall": 0.1, "rc": None,
             "error": "LinAlgError: Eigenvalues did not converge"},
            {"command": 1, "wall": 0.1, "rc": 1, "error": "error: no stable"},
            {"command": 2, "wall": 0.1, **ok, "output": {
                "delta_theta_star_rad": "1.0", "r_min_star": "0.5",
                "r_min_at_zero_phase": "0.0"}},
        ],
    }

    known = os.path.join(workdir, "known.json")
    attempted, failed, problems = run.check(3, result, inp, known)
    assert (attempted, failed) == (3, 3)
    assert len(problems) >= 3


def test_output_differing_from_an_earlier_run_fails(workdir):
    inp = inputs.make_inputs("phase_opt", 3, ROOT, workdir, smoke=True)
    known = os.path.join(workdir, "known.json")
    ok = {"command": 0, "wall": 0.1, "rc": 0, "error": None}
    first = {"points_per_command": 1, "warmup": ok,
             "commands": [{**ok, "output": {"r_min_star": "0.5"}}]}
    second = {"points_per_command": 1, "warmup": ok,
              "commands": [{**ok, "output": {"r_min_star": "0.25"}}]}
    assert run.check(3, first, inp, known)[2] == [
        "command 0: phase-opt output lacks delta_theta_star_rad, "
        "r_min_at_zero_phase"]
    attempted, failed, problems = run.check(3, second, inp, known)
    assert (attempted, failed) == (1, 1)
    assert "earlier runs" in problems[0]


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
