#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload, with tracing off and on, it checks that the result line
has exactly the expected keys, that every metric is present with the unit
perfbench/spec.py gives, that all checks pass and that error_rate is 0. It
also checks that BENCHMARK.json agrees with spec.py, and that run.py exits
non-zero without a result where the pickgen sources are missing. The file
name keeps pytest from collecting it. Exit code 0 means every check held.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spec import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_synth", "restore_synth", "restore_widevocab")
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: not correct: {detail['problems']}")
    if result.get("failed") != 0 or detail["error_rate"] != 0:
        problems.append(f"{where}: {result.get('failed')} failed operations")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    expected = {name: unit for name, unit, _, _ in (PER_LAYER if trace else END_TO_END)}
    found = result.get("metrics", {})
    if list(found) != list(expected):
        problems.append(f"{where}: metric names {sorted(set(found) ^ set(expected))} differ")
    for name, unit in expected.items():
        metric = found.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {metric.get('unit')!r}, not {unit!r}")
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    if detail["absent_bindings"]:
        problems.append(f"{where}: absent bindings {detail['absent_bindings']}")
    return problems


def check_manifest() -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return ["BENCHMARK.json not found at the repository root"]
    manifest = json.loads(path.read_text())
    problems = []
    for key, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if listed != [(n, u, b) for n, u, b, _ in spec]:
            problems.append(f"BENCHMARK.json {key} differs from spec.py")
    if not {w["name"] for w in manifest["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py does not have")
    return problems


def check_without_sources() -> list[str]:
    """Only BENCHMARK.json and perfbench/: run.py must fail, printing no result."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = check_manifest() + check_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
