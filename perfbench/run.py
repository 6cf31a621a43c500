#!/usr/bin/env python3
"""Build and run plutopp's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the plutopp library from
src/ plus the benchmark) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only rebuild
what changed. Results and traces go to .bench_out/. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

# A single-workload run must end well inside three minutes; the benchmark
# itself stops measuring after --seconds, so this only catches a hang.
RUN_TIMEOUT_S = 175


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(bench_dir, build_dir, targets):
    """Configures (once) and builds the given targets; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
           "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_root, "perfbench")
    out_dir = os.path.join(root, ".bench_out")

    selftest = "--selftest" in argv
    targets = ["perfbench_test"] if selftest else ["perfbench"]
    if not build(bench_dir, build_dir, targets):
        log("build failed")
        return 2

    env = dict(os.environ)
    # Compiles are serial: pin the dependence census's OpenMP region (the
    # generated kernels pin their own thread count).
    env["OMP_NUM_THREADS"] = "1"
    # The JIT writes its translation units under TMPDIR: keep them in the
    # checkout.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp

    if selftest:
        binary = os.path.join(build_dir, "perfbench_test")
        return subprocess.run([binary], env=env).returncode

    binary = os.path.join(build_dir, "perfbench")
    args = argv if "--out-dir" in argv else argv + ["--out-dir", out_dir]
    timeout = None if "--all" in argv else RUN_TIMEOUT_S
    try:
        return subprocess.run([binary] + args, env=env,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
