#!/usr/bin/env python3
"""Request-stream benchmark for FairSQG.

Run from the repository root:

    python3 reqbench/run.py --workload dbp-diverse-enum --seed 1 --seconds 25 --trace 0
    python3 reqbench/run.py --workload all --seed 1 --seconds 25

Builds the library and the reqbench binary from source (Release) into
$CARGO_TARGET_DIR/reqbench (default .bench_build/reqbench), generates the
workload's inputs for the seed into .reqbench_work/<workload>/, then runs
the binary on them in a process of its own per workload, so that peak
memory belongs to one workload. The last line of standard output is the
binary's JSON result; with --workload all it merges the workloads' results,
prefixing each metric with its workload name.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(HERE, "workloads.json")
# Seconds allowed for one workload's generation, load timing and run.
RUN_TIMEOUT_S = 170
# Fresh processes that each time one load of the workload's graphs; setup_s
# is their median. They are pinned to the allowed cores in turn, so every
# run samples each core equally: on a shared virtual machine one core can
# run 40% slower than the others for minutes.
SETUP_PROCESSES = 8


def fail(message):
    print("reqbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_revision():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for base in ("src", "reqbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configures and builds the reqbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to reqbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "reqbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "reqbench")
    if not os.path.isfile(binary):
        fail("build produced no binary at " + binary)
    return binary


def run_workload(binary, name, seed, seconds, trace, revision):
    """Generates and runs one workload; returns the parsed JSON result."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(ROOT, ".reqbench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--spec", SPEC, "--workload", name, "--dir", work]
    try:
        gen = subprocess.run([binary, "gen", *common, "--seed", str(seed)],
                             cwd=ROOT, stdout=sys.stderr,
                             timeout=deadline - time.monotonic())
        if gen.returncode != 0:
            fail("workload generation failed for " + name)
        samples = []
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_PROCESSES):
            cpu = cpus[i % len(cpus)]
            load = subprocess.run([binary, "load", *common], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
                                  timeout=deadline - time.monotonic())
            fields = load.stdout.split()
            if (load.returncode != 0 or len(fields) != 2
                    or fields[0] != "load_seconds"):
                fail("graph load failed for " + name)
            samples.append(fields[1])
        out = subprocess.run(
            [binary, "run", *common, "--seconds", str(seconds),
             "--trace", str(trace), "--commit", revision,
             "--setup-samples", ",".join(samples)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail(name + " did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out.stdout)
        fail(name + " exited with code %d and no result" % out.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    with open(SPEC) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    if args.workload == "all":
        chosen = names
    elif args.workload in names:
        chosen = [args.workload]
    else:
        fail("unknown workload '%s' (one of %s, or all)"
             % (args.workload, ", ".join(names)))

    binary = build()
    revision = source_revision()
    results = {}
    for name in chosen:
        print("== %s (seed %d, %g s, trace %d)"
              % (name, args.seed, args.seconds, args.trace))
        results[name] = run_workload(binary, name, args.seed, args.seconds,
                                     args.trace, revision)
        sys.stdout.flush()

    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]))
        return
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {}}
    for name, r in results.items():
        for metric, value in r["metrics"].items():
            merged["metrics"][name + "." + metric] = value
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
