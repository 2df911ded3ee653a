#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced. Checks that every output check passes and that every metric
BENCHMARK.json names is printed with its unit. Run from the repository
root:

    python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run("--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
            label = f"{w['name']} --trace {trace}"
            if r.returncode != 0:
                errors.append(f"{label}: exit {r.returncode}: {r.stderr.strip()[-400:]}")
                continue
            lines = r.stdout.splitlines()
            result = json.loads(lines[-1])
            if not lines[0].startswith("provenance "):
                errors.append(f"{label}: no provenance line")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{label}: checks failed: {lines[-1][:200]}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name in want:
                if not any(line.split()[:1] == [name] for line in lines[:-1]):
                    errors.append(f"{label}: {name} not printed")
            print(f"ok {label}: {result['attempted']} ops")
    bad = run("--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0")
    if bad.returncode == 0 or bad.stdout.strip():
        errors.append("an unknown workload must fail without a result")
    for e in errors:
        print("FAIL " + e)
    print("smoke OK" if not errors else f"smoke FAILED ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
