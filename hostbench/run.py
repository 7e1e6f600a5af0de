#!/usr/bin/env python3
"""Build and run the host-cost benchmark.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds hostbench/ (a CMake project that compiles the repository's src/)
into $CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when the
variable is unset, runs the arithmetic self-test, then runs the benchmark
binary with the same arguments. The binary's last line of output is the
JSON result; the exit code is non-zero when the build, the self-test or a
correctness guard fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def run_logged(cmd, log):
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode


def build(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
        [os.path.join(out_dir, "hostbench_selftest")],
    ]
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log, "rb") as f:
                tail = f.read()[-4000:].decode("utf-8", "replace")
            sys.stderr.write(tail + "\nhostbench: step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    args = sys.argv[1:]
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(out_dir, "hostbench")] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
