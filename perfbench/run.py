#!/usr/bin/env python3
"""Builds and runs the nsky serving benchmark.

    python3 perfbench/run.py --workload skyline_read --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark program (perfbench/harness) is
built from the repository's sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). For each workload the script generates the
seeded inputs with `perfbench gen` into a scratch directory under the build
directory, measures them with `perfbench run`, and removes the inputs.

--workload all runs every workload in turn, prints each one's row, and ends
with one JSON line whose metric names are prefixed by the workload.

The last line of standard output is the JSON result; build output and
diagnostics go to standard error. Exits non-zero when the build fails, a
request or output check fails, or a run is invalid.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["skyline_read", "skyline_mutate", "snapshot_reload"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, build_dir, workload, args):
    """Generates inputs, measures, and returns (exit code, stdout lines)."""
    inputs = os.path.join(build_dir, "runs",
                          f"{workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        subprocess.run([binary, "gen", "--workload", workload,
                        "--seed", str(args.seed), "--dir", inputs],
                       check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        cmd = [binary, "run", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", os.path.relpath(inputs)]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{workload}-seed{args.seed}.json")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout.splitlines()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        try:
            code, lines = run_workload(binary, build_dir, workload, args)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired, OSError) as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 1
        if not lines:
            print(f"perfbench: {workload}: no output (exit {code})",
                  file=sys.stderr)
            return 1
        if len(workloads) == 1:
            print("\n".join(lines))
            return code
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        status = status or code
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
