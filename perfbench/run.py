#!/usr/bin/env python3
"""Build and run the adaptsim benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py            # every workload, one process each
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark binary is built with CMake
into .bench_build/perfbench (Release); the workloads write only under
.bench_work.  With --workload, the last line of standard output is the
binary's JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper_cold", "paper_warm", "control", "gather_interval"]
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion (killing it on timeout); return its result."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out, err


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code, _, _ = run_checked(
            ["cmake", "-S", SOURCE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], 300,
            stdout=sys.stderr)
        if code != 0:
            return False
    code, _, _ = run_checked(
        ["cmake", "--build", BUILD, "--target", target, "-j", BUILD_JOBS],
        850, stdout=sys.stderr)
    return code == 0


def run_workload(args, workload, trace):
    cmd = [os.path.join(BUILD, "adaptbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    code, out, _ = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                               text=True)
    return code, out


def run_all(args):
    """Every workload, untraced then traced, as a table."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_workload(args, workload, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{workload}: failed (exit {code})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"\n{workload} (trace {trace}): correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    if any(k.startswith("ADAPTSIM_") for k in os.environ):
        print("run.py: unset every ADAPTSIM_* variable first; each one "
              "changes the work measured", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2010)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        if not build("perfbench_test"):
            return 1
        code, _, _ = run_checked(
            ["ctest", "--test-dir", BUILD, "--output-on-failure"], 1800)
        return code
    if not build("adaptbench"):
        return 1
    if args.workload is None:
        return run_all(args)
    code, out = run_workload(args, args.workload, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
