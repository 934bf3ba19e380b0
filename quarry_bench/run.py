#!/usr/bin/env python3
"""Builds quarry_bench from the checkout's sources and runs it.

Run from the root of the repository:

  python3 quarry_bench/run.py --workload olap_read --seed 1 --seconds 15 --trace 0
      One run: builds (first time only), runs the workload and prints its
      result JSON as the last line of stdout. Exit code is quarry_bench's.
  python3 quarry_bench/run.py --smoke [--binary PATH]
      Every workload at tiny sizes, untraced and traced: every output check
      passes, every metric BENCHMARK.json declares is emitted with its unit,
      and a run with a failed check exits 1.
  python3 quarry_bench/run.py --sweep OUT.json --seeds 1-10 [--trace 1]
      Every workload at every seed; writes a result set with host details
      for bench_compare.

The build goes to $CARGO_TARGET_DIR, or .bench_build, under the root.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A first run (build plus run) must end within 900 s, any other within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_group(command, timeout, **kwargs):
    """subprocess.run in a process group of its own; on timeout the whole
    group (a build's compilers too) is killed and reaped before raising."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def build():
    """Configures and builds the package; returns the binary path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "quarry_bench", "bench_compare"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = run_group(step, max(1, deadline - time.monotonic()),
                             stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"build failed: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("build failed", file=sys.stderr)
            return None
    return out / "quarry_bench"


def command_for(binary, workload, seed, seconds, trace, extra=()):
    """The quarry_bench command line; its paths are relative to ROOT, the
    directory it runs in."""
    out = os.path.relpath(build_dir(), ROOT)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", os.path.join(out, "work")]
    if trace:
        command += ["--trace-file",
                    os.path.join(out, "traces", f"{workload}-seed{seed}.json")]
    return command + list(extra)


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one invocation; returns (exit code, result dict or None, detail
    dict). The exit code is None when the run timed out."""
    command = command_for(binary, workload, seed, seconds, trace, extra)
    try:
        done = run_group(command, RUN_TIMEOUT_S, cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: timed out", file=sys.stderr)
        return None, None, {}
    sys.stderr.write(done.stderr)
    detail = {}
    for line in done.stderr.splitlines():
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, detail


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def smoke(binary):
    spec = load_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    start = time.monotonic()
    smoke_flag = ["--smoke"]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} trace={trace}"
            code, result, _ = run_binary(binary, workload, 1, 0.5, trace,
                                         smoke_flag)
            if result is None:
                problems.append(f"{where}: no result")
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: output checks failed (exit {code})")
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{where}: metrics differ from BENCHMARK.json"
                                f" (missing {missing}, extra {extra}, or units)")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} is not a number")
    # A failed output check must print the result and exit 1.
    code, result, _ = run_binary(binary, "etl_s2b", 1, 0.5, 0,
                                 smoke_flag + ["--fail-check"])
    if code != 1 or result is None or result["correct"] or \
            result["failed"] < 1:
        problems.append(f"--fail-check: exit {code}, result {result}")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}", file=sys.stderr)
    print(f"smoke: {'failed' if problems else 'passed'} in "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    return 1 if problems else 0


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "cpu_model": model}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def sweep(binary, out_path, seeds, seconds, trace, label):
    spec = load_spec()
    record = {"label": label, "trace": trace, "seconds": seconds,
              "host_before": host_info(), "runs": []}
    status = 0
    for seed in seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            start = time.monotonic()
            code, result, detail = run_binary(binary, workload, seed, seconds,
                                              trace)
            if code != 0:
                status = 1
            record["runs"].append({"workload": workload, "seed": seed,
                                   "wall_s": time.monotonic() - start,
                                   "result": result, "detail": detail})
    record["host_after"] = host_info()
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sweep", metavar="OUT")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="")
    parser.add_argument("--binary", help="use this quarry_bench, skip the build")
    args = parser.parse_args()

    binary = Path(args.binary) if args.binary else build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    if args.sweep:
        return sweep(binary, args.sweep, parse_seeds(args.seeds), args.seconds,
                     args.trace, args.label)
    if not args.workload:
        parser.error("--workload is required")
    command = command_for(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    try:
        return run_group(command, RUN_TIMEOUT_S, cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        print("quarry_bench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
