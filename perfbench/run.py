#!/usr/bin/env python3
"""End-to-end benchmark of the batch system: build, self-test, run.

    python3 perfbench/run.py --workload replay_swf|esp_dynamic|svc_durable \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library sources and
the benchmark program) with CMake in Release mode into $CARGO_TARGET_DIR
(default .bench_build), runs the benchmark's own unit test, then runs one
workload for S seconds on inputs made from the seed. Build output goes to
stderr; stdout ends with one JSON line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
preceded by a line with the host (nproc, compiler, CMAKE_BUILD_TYPE) and
sample counts. Scratch files (service state, span dumps) go to .bench_out.
Exits non-zero, printing no result, if the build, the self-test or the run
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replay_swf", "esp_dynamic", "svc_durable")


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def cached_source_dir(build_dir):
    """The source directory a CMake build tree was configured for, if any."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache, encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    cached = cached_source_dir(build_dir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        # A tree configured for another checkout: CMake refuses to reuse it.
        os.remove(os.path.join(build_dir, "CMakeCache.txt"))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "perfbench_selftest", "-j", str(os.cpu_count() or 2)],
        stdout=sys.stderr, check=True, timeout=800)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.abspath(".bench_out")
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                       stdout=sys.stderr, check=True, timeout=60)
        result = subprocess.run(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds * 3 + 60)
    except (OSError, subprocess.SubprocessError) as e:
        log("failed:", e)
        return 1
    if result.returncode != 0:
        log("perfbench exited with", result.returncode)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
