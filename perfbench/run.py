#!/usr/bin/env python3
"""Build cci_perfbench from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record   # reference digests

Run from anywhere; paths resolve against the checkout holding this file.
The build (cmake, RelWithDebInfo) goes to $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; its log is build.log there.  The program's
last stdout line is the JSON result; result records, traces and the
per-layer tables land in <build dir>/out/.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cci sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(os.path.join(out, "build.log"), "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed: " + " ".join(cmd) + " (see build.log)", 1)
    return os.path.join(out, "cci_perfbench")


def commit():
    """Git commit of the checkout, or "unknown" outside a repository."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="print one repetition's reference digests instead of measuring")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir(), "out"),
           "--reference", os.path.join(HERE, "reference_digests.txt"),
           "--commit", commit()]
    if args.record:
        cmd.append("--record")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
