#!/usr/bin/env python3
"""Build zbench from source and run one workload of zdb's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 8 --trace 0

The engine and the benchmark are compiled (Release) into
$CARGO_TARGET_DIR/zbench, default .bench_build/zbench; the first run
builds, later runs only relink what changed. Temporary DB files live
under the same directory and are removed by every run. All arguments are
passed to the zbench binary, which validates them strictly; its exit
code is this script's exit code, and its last line of standard output is
the JSON result. Build output goes to standard error.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_child(cmd, **kwargs):
    """Runs cmd to completion; a SIGTERM/SIGINT stops the child first."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    old_term = signal.signal(signal.SIGTERM, stop)
    old_int = signal.signal(signal.SIGINT, stop)
    try:
        return child.wait()
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    work_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(work_dir, "zbench")
    # Compiler and benchmark temporaries stay inside the work directory.
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "zbench", "-j", jobs]):
        code = run_child(cmd, stdout=sys.stderr, env=env)
        if code != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return code if code > 0 else 1
    env["ZBENCH_GIT_COMMIT"] = git_commit()
    binary = os.path.join(build_dir, "zbench")
    return run_child([binary] + sys.argv[1:] + ["--work-dir", work_dir], env=env)


if __name__ == "__main__":
    sys.exit(main())
