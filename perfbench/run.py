#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness and the library are compiled
into .bench_build (or $CARGO_TARGET_DIR when set) with CMake; build output
goes to stderr. The harness prints its JSON result as the last line of
stdout; this script checks that it names only metrics BENCHMARK.json
declares for the requested mode, with their units, adds every declared
per-layer metric the workload does not reach as 0 (the harness leaves
those out), and exits nonzero on any build failure, harness failure or
contract mismatch: an undeclared metric, a wrong unit, or a missing
end-to-end metric.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room to report a hung harness.
RUN_TIMEOUT_S = 170


def run_checked(cmd, **kwargs):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if proc.returncode != 0:
        sys.exit("perfbench: command failed: " + " ".join(cmd))


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd)
    run_checked(["cmake", "--build", build_dir, "-j", "4"])
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args.index("--trace") + 1 < len(args) and \
        args[args.index("--trace") + 1] == "1"
    expected = expected_metrics(trace)
    build_dir = build()
    work = os.path.relpath(os.path.join(build_dir, "work"), ROOT)
    exe = os.path.join(build_dir, "perfbench")
    proc = subprocess.Popen([exe] + args + ["--workdir", work], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: harness timed out")
    lines = out.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if proc.returncode != 0 or not lines:
        if lines:
            sys.stderr.write(lines[-1] + "\n")
        sys.exit("perfbench: harness exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    wrong = sorted(set(got.items()) - set(expected.items()))
    missing = sorted(set(expected) - set(got))
    if wrong or (missing and not trace):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing %s, "
                 "undeclared or wrong unit %s" % (missing, wrong))
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
