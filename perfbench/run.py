#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--inject leak|bypass] [--trace-out PATH]

Run from the root of a checkout. The first call configures and builds an
optimized (Release) copy of the simulator libraries and the benchmark
program fv_perfbench under .bench_build/ (or $CARGO_TARGET_DIR); later calls only
rebuild what changed. fv_perfbench's result is printed as the last line of
standard output, preceded by one line holding the host block (CPU,
compiler and flags, build type, commit). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("burst_saturated", "churn_1m", "tcp_probe_40g", "fuzz_chaos")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build fv_perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        die("simulator sources not found at " + SRC)
    if shutil.which("cmake") is None:
        die("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "fv_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return os.path.join(build_dir, "fv_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def commit():
    try:
        # Never look for a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.dirname(HERE)))
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=HERE, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the simulator sources and the benchmark, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for root in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description="FlowValve simulator benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject", choices=("leak", "bypass"),
                    help="arm a deliberate pipeline bug (proves the checks fail)")
    ap.add_argument("--trace-out", help="Chrome trace-event JSON of the traced run")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(build_dir)

    trace_out = args.trace_out
    if args.trace and not trace_out:
        trace_out = os.path.join(build_dir, "traces",
                                 "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("fv_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        die("fv_perfbench failed with exit code %d" % proc.returncode)
    build_info = json.loads(lines[0])
    result = json.loads(lines[-1])

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info["compiler"],
        "flags": build_info["flags"].strip(),
        "build_type": build_info["build_type"],
        "optimized": build_info["build_type"] == "Release" and build_info["ndebug"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace_file": os.path.relpath(trace_out) if trace_out else None,
    }
    if not host["optimized"]:
        print("perfbench: WARNING: not an optimized Release build", file=sys.stderr)
    print("host " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
