#!/usr/bin/env python3
"""Build and run the DLFS benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the simulator libraries from src/ and the perfbench binary into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls rebuild incrementally. Each workload runs in its own
single-threaded process, with address-space randomisation turned off for
that process (see fixed_layout). For one workload the last line of stdout is
perfbench's JSON result; with --trace 1 the Chrome trace lands in
<build>/traces/<workload>-seed<n>.json. `--workload all` runs every
workload in turn and prints a table of every end-to-end metric plus
attempted and failed operations per workload.
"""

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fleet_scale", "shared_disagg", "warm_reshuffle", "crash_repair"]
# A run measures for --seconds and finishes the round in progress; this
# bounds the round that straddles the deadline plus set-up.
RUN_TIMEOUT_PAD_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    repo = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        log("perfbench: no DLFS sources next to perfbench/ (expected src/); "
            "run from a full checkout")
        sys.exit(2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(out, "perfbench")


# personality(2) flag that turns off address-space layout randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: gives perfbench the same address
    layout in every run. With randomised layouts the per-run medians of
    host_s differed by about twice as much as with a fixed one (six runs
    of one seed each way). Only this process tree is affected; where the
    call is refused the run goes on with a randomised layout."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=seconds + RUN_TIMEOUT_PAD_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out" % workload)
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        if code != 0 or parse_result(lines) is None:
            for line in lines[:-1] if lines else []:
                log(line)
            log("perfbench: %s produced no result (exit %d)"
                % (args.workload, code))
            return 1
        print("\n".join(lines), flush=True)
        return 0

    results = {}
    for w in WORKLOADS:
        code, lines = run_one(binary, w, args.seed, args.seconds, args.trace)
        result = parse_result(lines)
        if code != 0 or result is None:
            log("perfbench: %s produced no result (exit %d)" % (w, code))
            return 1
        results[w] = result
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-26s" % "metric" + "".join("%18s" % w for w in WORKLOADS))
    for row in ["correct", "attempted", "failed"]:
        print("%-26s" % row + "".join("%18s" % results[w][row]
                                      for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-26s" % ("%s [%s]" % (name, unit)) + "".join(
            "%18.6g" % results[w]["metrics"][name]["value"]
            for w in WORKLOADS))
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
