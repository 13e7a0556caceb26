#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite141 --seed 20240624 \\
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the jsai
libraries from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The program runs with every JSAI_* variable removed from its environment,
so each workload sees the default flags, and with TMPDIR inside the build
directory.

Exit status: the benchmark's own (0 on a completed run), 1 when the build
or the run fails or times out, 2 on bad arguments.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("suite141", "large-solve", "large-exec", "serve-edit")
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    # Compiler and benchmark temporaries stay inside the checkout too.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JSAI_")}
    env["TMPDIR"] = os.path.join(root, build, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def step(cmd):
        # Build chatter goes to stderr; stdout carries only the result.
        return subprocess.run(cmd, cwd=root, env=env,
                              stdout=sys.stderr).returncode

    if not os.path.exists(os.path.join(root, build, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if step(["cmake", "-S", "perfbench", "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen) != 0:
            return 1
    if step(["cmake", "--build", build, "--target", "perfbench",
             "-j", jobs]) != 0:
        return 1

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build, "work"),
           "--digests", os.path.join("perfbench", "digests.txt")]
    try:
        return subprocess.run(cmd, cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
