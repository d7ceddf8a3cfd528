#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; asserts no timing.

    python3 bench/selftest.py

Runs every workload at toy sizes, untraced and traced, and checks that
each run passes its output checks, that its last line carries exactly
the metrics BENCHMARK.json lists with the units listed there, and that
its full result carries every metric run.py defines for the mode. It
also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

PROVENANCE = {"python", "numpy", "nproc", "git_commit", "src_sha256", "seed", "traced"}


def check_run(spec: dict, workload: str, trace: int) -> list:
    label = f"{workload} --trace {trace}"
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    problems = []
    final = json.loads(lines[-1])
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: last line has keys {sorted(final)}")
    if final.get("correct") is not True or final.get("failed") != 0 or final.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={final.get('correct')} failed={final.get('failed')}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = final.get("metrics", {})
    if set(got) != set(listed):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(listed))} differ from BENCHMARK.json")
    for name, unit in listed.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} emitted as {entry}, BENCHMARK.json unit {unit}")
    result = json.loads((run.OUT / f"result-{workload}-trace{trace}.json").read_text())
    defined = run.PER_LAYER if trace else {**run.END_TO_END, **run.WORKLOAD_E2E[workload]}
    for name, unit in defined.items():
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{label}: report lacks {name} [{unit}]")
    if not PROVENANCE <= set(result["provenance"]):
        problems.append(f"{label}: provenance lacks {sorted(PROVENANCE - set(result['provenance']))}")
    return problems


def check_bare_directory() -> list:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [sys.executable, "bench/run.py", "--workload", "fixed-point", "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, printed {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in run.WORKLOAD_E2E:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
