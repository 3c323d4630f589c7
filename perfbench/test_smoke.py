"""Smoke tests of the benchmark at tiny sizes (``run.py --smoke``).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics each workload prints on its "metric" lines besides BENCHMARK.json's.
NAMED = {
    "pipeline": {"pipeline_s": "s", "generate_s": "s", "attack_s": "s", "trace_s": "s"},
    "analysis": {"search_iters_per_s": "1/s", "predict_reports_per_s": "1/s",
                 "sim_desk_trials_per_s": "1/s", "sim_coalition_trials_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "failed/attempted"}


def run_bench(*args, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def printed_units(lines):
    """{name: unit} from lines 'metric <name> = <value> <unit> (...)'."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            out[name] = rest.split(" (")[0].split(" ", 1)[1]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--smoke", "--workload", workload, "--seed", "0",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        spec.update(COMMON, **NAMED[workload])
    printed = printed_units(lines)
    assert {k: printed.get(k) for k in spec} == spec
    gate = next(line for line in lines if line.startswith("gate "))
    assert gate == f"gate attempted={result['attempted']} failed=0"


def test_gate_fails_on_a_damaged_output(tmp_path):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    wl = workloads.Pipeline(seed=0, smoke=True, work=str(tmp_path))
    steps = [workloads.run_cli(label, argv) for label, argv in wl.commands(None)]
    tally = workloads.Tally()
    wl.gate(tally, None, steps)
    assert tally.attempted > 0 and tally.failures == []

    with open(wl.csv, encoding="utf-8") as fh:
        rows = fh.read().splitlines(keepends=True)
    with open(wl.csv, "w", encoding="utf-8") as fh:
        fh.writelines(r for r in rows if not r.startswith("17,"))
    tally = workloads.Tally()
    wl.gate(tally, None, steps)
    assert "coalition user 17 not scored" in tally.failures
    assert "trace CSV differs between --threads 1 and the default" in tally.failures


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "pipeline", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
