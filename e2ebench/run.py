#!/usr/bin/env python3
"""Build and run the end-to-end TCP benchmark (see e2ebench/NOTES.md).

    python3 e2ebench/run.py --workload lod_browse --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root.  The first call configures and builds the
dcws library and the benchmark under .bench_build/e2ebench (build output
goes to stderr); later calls rebuild incrementally.  The benchmark's last
stdout line is its JSON result.  Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def option(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main(args):
    if args == ["--selftest"]:
        if not build("e2e_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "e2e_selftest")]).returncode
    if not build("dcws_e2e"):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "dcws_e2e")] + args
    if option(args, "--trace") == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-%s.tsv" % (option(args, "--workload"), option(args, "--seed"))
        command += ["--spans-out", os.path.join(spans, name)]
    # A terminated run.py still stops and reaps the benchmark it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
