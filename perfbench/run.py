#!/usr/bin/env python3
"""Build the perfbench package and run one benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds `perfbench/` (release profile, offline, into `$CARGO_TARGET_DIR`
or `perfbench/target`), prints one `provenance` line, then the benchmark's
own output, whose last line is the JSON result. It exits non-zero, without
a result line, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Directories the source digest skips: build outputs and VCS metadata.
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}


def target_dir():
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is ROOT below.
    d = os.environ.get("CARGO_TARGET_DIR")
    if not d:
        return os.path.join(HERE, "target")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "-q",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False


def output_of(*cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "results", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args):
    is_git = os.path.exists(os.path.join(ROOT, ".git"))
    return {
        "git_rev": output_of("git", "rev-parse", "HEAD") if is_git else "none",
        "source_sha256": source_digest(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output_of("rustc", "-V"),
        "profile": "release (lto=thin, codegen-units=1)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    args = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target_dir(), "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"perfbench: cannot run {exe}: {e}", file=sys.stderr)
        return 1
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {r.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: run printed no result line", file=sys.stderr)
        return 1
    prov = provenance(args)
    prov["run_s"] = round(time.monotonic() - started, 3)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
