#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Builds tools/ptk_server and the benchmark driver from the sources of this
checkout, then runs one workload against the real server:

    python3 perfbench/run.py --workload clean_opt --seed 1 --seconds 20 \
        --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; build output goes to stderr, so the last line of stdout is
the driver's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A hung run is stopped, servers included, before three minutes pass.
DRIVER_TIMEOUT_S = 170


def build(build_dir, env):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "ptk_server",
         "perfbench_driver"],
        stdout=sys.stderr, env=env)
    return result.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    # Compiler and driver temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(build_dir, "ptk_server"),
        "--work-dir", os.path.join(build_dir, "runs"),
    ]
    # Its own process group, so a timeout also stops the servers it spawned.
    driver = subprocess.Popen(command, start_new_session=True, env=env)
    try:
        return driver.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
