#!/usr/bin/env python3
"""Run one workload of the gbmo benchmark and print its result.

    python3 gbmobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the benchmark package in
gbmobench/ (its own CMake project, which compiles ../src) into
$CARGO_TARGET_DIR/gbmobench, default .bench_build/gbmobench, runs the
statistics self-test, then runs the workload once. It checks that the
metrics the program reports are exactly the ones BENCHMARK.json lists for
the mode, and that gbmobench/provenance.json describes every workload and
every per-layer metric. The last line of stdout is the result object.

Exit codes: 0 when every output was correct; 1 when a check failed (the
result is printed, with "correct": false), or when the build, the self-test
or the run failed (no result is printed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def check_provenance(bench, provenance):
    """Every workload and per-layer metric of BENCHMARK.json is described."""
    names = {w["name"] for w in bench["workloads"]}
    described = set(provenance["workloads"])
    if names != described:
        fail("provenance.json workloads %s != BENCHMARK.json %s"
             % (sorted(described), sorted(names)))
    layers = {m["name"] for m in bench["per_layer"]}
    mapped = set(provenance["layer_map"])
    if layers != mapped:
        fail("provenance.json layer_map differs from BENCHMARK.json per_layer: "
             "missing %s, extra %s" % (sorted(layers - mapped), sorted(mapped - layers)))


def build(build_dir, jobs):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", str(jobs)]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    check_provenance(bench, load_json(os.path.join(HERE, "provenance.json")))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload " + args.workload)
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}

    nproc = len(os.sched_getaffinity(0))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "gbmobench")
    build(build_dir, nproc)
    selftest = subprocess.run([os.path.join(build_dir, "gbmobench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("statistics self-test failed")

    cmd = [os.path.join(build_dir, "gbmobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("workload printed no result (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or wrong unit %s"
             % (sorted(set(expected.items()) - set(got.items())),
                sorted(set(got.items()) - set(expected.items()))))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
