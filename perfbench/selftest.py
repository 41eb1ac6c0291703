#!/usr/bin/env python3
"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout. Every workload in workloads.json runs once
untraced and once traced on a shrunken config; each result must pass its
output checks and print exactly the metric names, with their units, that
BENCHMARK.json declares. Last, the benchmark must refuse to run where there
is no source. Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import run

SHRINK = {
    "pretrain": {"steps": 20, "fqe_steps": 10},
    "agent": {"batch": 16, "hidden": [8, 8]},
    "finetune": {"total_env_steps": 40, "warmup_steps": 20, "eval_every": 10, "eval_episodes": 2},
    "reference_episodes": 4,
    "last_k": 3,
}


def shrink(config: dict) -> dict:
    small = copy.deepcopy(config)
    small["behavior"] = [{**b, "n_traj": 3} for b in small["behavior"]]
    for key, value in SHRINK.items():
        small[key] = {**small.get(key, {}), **value} if isinstance(value, dict) else value
    return small


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = run.load_workloads()
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    undefined = sorted(set(declared) - set(workloads))
    if undefined:
        problems.append(f"BENCHMARK.json workloads missing from workloads.json: {undefined}")
    for name in workloads:
        config = shrink(run.workload_config(workloads[name], seed=1))
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.run(
                root, f"selftest-{name}", config, workloads[name]["jobs"], 1, 0.0, trace
            )
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            label = f"{name} trace={int(trace)}"
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                problems.append(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
            if not result["correct"]:
                problems.append(f"{label}: outputs failed their checks: {record['pipelines']}")
            if not record["artifacts"]:
                problems.append(f"{label}: no artifact digests recorded")
            if trace and record["trace_detail"]["unpatched"]:
                problems.append(f"{label}: unpatched {record['trace_detail']['unpatched']}")
            print(f"{label}: {len(got)} metrics, correct={result['correct']}", file=sys.stderr)
    empty = root / run.WORK_DIR / "selftest-empty"
    empty.mkdir(parents=True, exist_ok=True)
    refused = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", declared[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=60,
    )
    if refused.returncode == 0 or refused.stdout.strip():
        problems.append("run.py did not refuse a directory without src/o2olab")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
