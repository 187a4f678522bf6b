#!/usr/bin/env python3
"""Build and run distill's benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload grid-roomy --seed 1 --seconds 10 --trace 0

Builds perfbench/ together with the library sources under src/ into
.bench_build/perfbench/, then runs one measurement in a fresh private cache
directory. Prints the measurement's summary lines and, as the last line, its
JSON result. The full measurement output, LBO tables included, is kept in
.bench_build/perfbench/<workload>-seed<N>-trace<T>.log; a traced run also
writes a Chrome trace (trace-<workload>-seed<N>.json) beside it.

Exits non-zero without a result when the library sources are missing, the
build fails, or the measurement fails or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("grid-roomy", "grid-tight", "serve-fleet")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# A healthy measurement takes under a minute; kill one that overruns.
MEASURE_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; compiler output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step), 1)


def source_digest():
    """git describe when available, plus a hash of the measured sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        describe = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    return "%s+src.%s" % (describe or "no-git", digest.hexdigest()[:12])


def measure(args):
    cache = os.path.join(BUILD, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISTILL_")}
    env["DISTILL_CACHE_DIR"] = cache
    env["DISTILL_NO_CACHE"] = "1"
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--describe", source_digest()]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so an overrun also takes down pool children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("measurement overran %d s" % MEASURE_TIMEOUT_S, 1)
    with open(os.path.join(BUILD, tag + ".log"), "w") as log:
        log.write(out)
    if proc.returncode != 0:
        fail("measurement exited with %d" % proc.returncode, 1)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("measurement printed no result line", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 1)
    for line in lines[:-1]:
        if line.startswith("perfbench: "):
            print(line)
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for tests")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "lbo", "sweep.hh")):
        fail("library sources not found under %s/src" % ROOT, 2)
    build()
    measure(args)


if __name__ == "__main__":
    main()
