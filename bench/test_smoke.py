"""Smoke tests for the benchmark itself.

    python -m pytest bench/test_smoke.py -q

Each workload runs for a second with and without tracing; the run must be
correct, and the metric names and units it prints must be exactly those in
``BENCHMARK.json``.  The tracer must survive a pruned layer and restore
every binding it patched.  Without the package sources, the benchmark must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_the_runner_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, json.loads(lines[-2])["info"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    env = json.loads(lines[-2])["env"]
    assert env["calibration_ms_start"] > 0 and env["calibration_ms_end"] > 0


def test_tracer_reports_a_pruned_layer_absent_and_restores_bindings(monkeypatch):
    import sugeno_bounds as sb
    from sugeno_bounds import rootfind, sugeno

    monkeypatch.delattr(rootfind, "solve_sign_change")
    modules = [m for name, m in sys.modules.items() if name.startswith("sugeno_bounds")]
    before = [dict(vars(m)) for m in modules]
    tr = tracing.Tracer()
    tr.install()
    assert "rootfind.sign_change" in tr.absent
    assert sugeno.evaluate is not before[modules.index(sugeno)]["evaluate"]
    tr.phase = "ops"
    tr.active = True
    with tr.span(tracing.OP):
        sb.sugeno_integral(sb.parse("x^2"), sb.Interval(1.0, 4.0), grid=1001)
    tr.uninstall()
    ops = tr.stats["ops"]
    assert ops["sugeno.integral"].calls == 1
    assert ops["expr.evaluate"].calls > 0
    assert "rootfind.sign_change" not in ops
    assert [dict(vars(m)) for m in modules] == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("integrate_bumpy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
