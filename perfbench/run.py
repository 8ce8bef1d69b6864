#!/usr/bin/env python3
"""Build the emulator and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; the first run configures and
compiles, later runs only check that the build is current.  Build
output goes to stderr; the benchmark's stdout ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Extra arguments after
the four above (--slow-cpu, --trace-out FILE) are passed through.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; returns the build directory."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "perfbench_tests", "--parallel", "4"],
                   stdout=sys.stderr, check=True)
    return bdir


def main(argv):
    try:
        bdir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    args = list(argv)
    if "--trace-out" not in args:
        # where the traced run writes its spans
        name = "run"
        if "--workload" in args[:-1]:
            name = os.path.basename(args[args.index("--workload") + 1])
        args += ["--trace-out", os.path.join(bdir, f"spans-{name}.json")]
    child = subprocess.Popen([os.path.join(bdir, "perfbench")] + args)
    try:
        return child.wait()
    finally:
        # on SIGTERM or an interrupt, take the benchmark down with us
        if child.poll() is None:
            child.kill()
            child.wait()

if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
