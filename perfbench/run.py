#!/usr/bin/env python3
"""Build COMPACT and the perfbench runner from source, then run the runner.

Usage (from the repository root):

  python3 perfbench/run.py --workload oct-serve --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke      # all workloads, fixed seed, seconds
  python3 perfbench/run.py --guard      # clock-independence guard

Builds go to .bench_build/ under the repository root (Release, one CMake
build of the repository for compact-serve and its libraries, one for the
runner). Build output goes to .bench_build/build.log so that the runner's
JSON result stays the last line of stdout. Exits 2 without a result when
the repository sources are missing or a build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
RUNNER_BUILD = os.path.join(BUILD, "perfbench")
BUILD_TYPE = "Release"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
        fail("build step failed: " + " ".join(cmd) +
             " (see .bench_build/build.log)")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "api")):
        fail("COMPACT sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.isfile(os.path.join(REPO_BUILD, "CMakeCache.txt")):
            run_logged(["cmake", "-S", ROOT, "-B", REPO_BUILD,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
        run_logged(["cmake", "--build", REPO_BUILD, "--target", "compact-serve",
                    "-j", jobs], log)
        # Configured every time: it is quick, and it picks up libraries or
        # targets that appeared since the last run.
        run_logged(["cmake", "-S", HERE, "-B", RUNNER_BUILD,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                    "-DCOMPACT_SOURCE_DIR=" + ROOT,
                    "-DCOMPACT_BUILD_DIR=" + REPO_BUILD], log)
        run_logged(["cmake", "--build", RUNNER_BUILD, "--target",
                    "perfbench_runner", "-j", jobs], log)
    # Write freshly linked binaries back now, not during the measurement.
    os.sync()


def main():
    build()
    serve = os.path.join(REPO_BUILD, "tools", "compact-serve")
    runner = os.path.join(RUNNER_BUILD, "perfbench_runner")
    cmd = [runner] + sys.argv[1:] + [
        "--serve-bin", serve,
        "--config", os.path.join(HERE, "workloads.json"),
        "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
        "--run-dir", os.path.relpath(os.path.join(BUILD, "run"), os.getcwd()),
    ]
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
