#!/usr/bin/env python3
"""Build and run the Longnail benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload catalog-cold|serve-mix|sim-isax \
        --seed N --seconds S --trace 0|1

The first run configures and builds the libraries, the `longnail` CLI
and the perfbench program into .bench_build/ (later runs only check that
the build is current). The program then runs the workload and prints a
table of every metric followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
non-zero when the build fails, an output is wrong or a metric is
missing. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("catalog-cold", "serve-mix", "sim-isax")


def run_timeout_s(seconds):
    """Limit for one run: the measured time plus set-up, warm-up, whole
    catalog rounds and reference compiles, which grow with it (170 s at
    the default 30 s)."""
    return 125 + 1.5 * seconds


def build():
    """Configure once, then build the benchmark targets; quiet on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Longnail sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "longnail"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % log_path)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    workdir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           # Relative: a Unix socket path must stay short.
           "--workdir", os.path.relpath(workdir, ROOT),
           "--longnail", os.path.join(BUILD, "tools", "longnail"),
           "--outdir", os.path.join(ROOT, ".bench_out"),
           "--benchmark", os.path.join(ROOT, "BENCHMARK.json")]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the daemon it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    timeout = run_timeout_s(args.seconds)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        stop_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    return code


def stop_group(pgid):
    """Kill what is left of the run's process group and wait until it
    is gone (normally nothing: the program reaps its daemon itself)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(3000):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
