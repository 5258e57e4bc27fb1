#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload monitor_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a ctwatch checkout. The first run configures and
builds the ctwatch libraries and the benchmark (RelWithDebInfo) under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse that build.
Each run makes its store under .bench_run/ and removes it afterwards;
a traced run (--trace 1) leaves its chrome trace in .bench_traces/.
The last line of stdout is the result JSON; the exit status is nonzero
when the build fails or any output of the run does not verify.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("monitor_read", "ca_submit", "paper_pipeline")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
                   "perfbench_selftest"]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        return fail("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include"))):
        return fail(f"no ctwatch sources next to {HERE}; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    if not build(build_dir):
        return fail("build failed")
    # Flush the build's written objects now, so their writeback does not
    # land inside the first measured run.
    os.sync()

    if args.selftest:
        work_dir = os.path.join(ROOT, ".bench_run", f"selftest-{os.getpid()}")
        try:
            return subprocess.run([os.path.join(build_dir, "perfbench_selftest"), work_dir],
                                  timeout=600).returncode
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    work_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir, "--commit", git_commit()]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        return subprocess.run(command, timeout=170).returncode
    except subprocess.TimeoutExpired:
        return fail("run exceeded 170 s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
