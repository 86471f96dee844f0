"""Tests of the benchmark itself; run with ``python -m pytest benchmarks``."""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_every_workload_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_gfe_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _modules():
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import run
    import workloads

    return run, workloads


def _descent_run(monkeypatch, tmp_path, crash_on_call):
    """An untraced toy descent-s2-1d run in which the chosen minimize calls raise.

    Call 0 is the order-2 probe, calls 1.. are the operations.
    """
    run, workloads = _modules()
    workload = workloads.DescentS2(1, True, tmp_path)
    real, calls = workloads.energy.minimize, []

    def minimize(*args, **kwargs):
        calls.append(None)
        if crash_on_call(len(calls) - 1):
            raise RuntimeError("injected crash")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads.energy, "minimize", minimize)
    monkeypatch.setattr(run, "setup_once", lambda args: 0.2)
    return run.untraced(argparse.Namespace(workload=workload.name, seconds=0.0), workload)


def test_an_operation_that_raises_makes_the_run_incorrect(monkeypatch, tmp_path):
    result = _descent_run(monkeypatch, tmp_path, lambda call: call == 1)
    assert result["correct"] is False
    assert result["failed"] == 1   # the crash; the probe is not an operation


def test_a_probe_failing_otherwise_than_the_known_defect_makes_the_run_incorrect(monkeypatch, tmp_path):
    result = _descent_run(monkeypatch, tmp_path, lambda call: call == 0)
    assert result["correct"] is False
    assert result["failed"] == 0


def test_a_run_in_which_every_operation_raises_reports_no_time(monkeypatch, tmp_path):
    assert _descent_run(monkeypatch, tmp_path, lambda call: True) is None
