#!/usr/bin/env python3
"""End-to-end benchmark of spmap: build, run one workload, report.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload paper_fig4|refine_wide|serve_open|all \
        --seed N --seconds S --trace 0|1

Builds the spmap library, the `spmap_cli` daemon and the benchmark runner
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or
`.bench_build`, then runs it. Its last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; this script checks that
its metric names are exactly the ones BENCHMARK.json declares for the
mode. It exits nonzero without a result line when the build fails or the
names drift, and after printing the result (`"correct": false`) when a
correctness check fails. Build output
and the runner's per-metric table go to stderr; result documents and
trace spans are written under <build dir>/perfbench-out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """A content hash of the sources the benchmark builds (the checkout
    need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "bench", "perfbench", "scenarios"):
        base = os.path.join(ROOT, top)
        for directory, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "src-sha256:" + source_digest()


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench_runner", "spmap_cli"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no spmap source tree next to perfbench/")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(ROOT, build_dir), ROOT)
    build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ, PERFBENCH_COMMIT=commit_id())
    command = [os.path.join(build_dir, "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--cli", os.path.join(build_dir, "spmap", "spmap_cli"),
               "--work-dir", out_dir]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("runner printed nothing")
    result = json.loads(lines[-1])

    declared = {m["name"] for m in
                spec["per_layer" if args.trace == "1" else "end_to_end"]}
    names = set(result["metrics"])
    if args.workload == "all":
        names = {name.split("/", 1)[1] for name in names}
    if names != declared:
        fail("metric names differ from BENCHMARK.json: "
             f"missing {sorted(declared - names)}, extra {sorted(names - declared)}")
    print("\n".join(lines))
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"]:
        fail(f"correctness check failed (runner exit {done.returncode})")


if __name__ == "__main__":
    main()
