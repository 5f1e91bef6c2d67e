#!/usr/bin/env python3
"""Build the coldboot libraries and the benchmark, then run one workload.

    python3 perfbench/run.py --workload attack_4mib --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own check tests

Run from anywhere inside a checkout. Builds go to $CARGO_TARGET_DIR
(default .bench_build) under the checkout root: the repository's own
top-level CMake build in <dir>/coldboot (Release), this package in
<dir>/perfbench. Build output goes to stderr; the benchmark's stdout
ends with one JSON result line. Exits non-zero, printing no result,
when anything fails to build.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
LIB_TARGETS = ["cb_attack", "cb_volume", "cb_engine"]
RUN_TIMEOUT_S = 175


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def step(cmd):
    """Run a build command with its output on stderr; False on failure."""
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {cmd[0]}: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def configure(src, build, extra):
    """Configure once; start over if the cache names another source."""
    cache = build / "CMakeCache.txt"
    if cache.exists():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={src}"
        if home in cache.read_text(errors="replace").splitlines():
            return True
        shutil.rmtree(build)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    return step(["cmake", "-S", str(src), "-B", str(build), *gen,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *extra])


def build(target):
    """Build the libraries, then this package's @target; its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file():
        print(f"run.py: no coldboot sources at {ROOT}", file=sys.stderr)
        return None
    out = build_root()
    libs, bench = out / "coldboot", out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    ok = (configure(ROOT, libs, [])
          and step(["cmake", "--build", str(libs), "-j", jobs,
                    "--target", *LIB_TARGETS])
          and configure(HERE, bench, [f"-DCOLDBOOT_ROOT={ROOT}",
                                      f"-DCOLDBOOT_BUILD={libs}"])
          and step(["cmake", "--build", str(bench), "-j", jobs,
                    "--target", target]))
    return bench / target if ok else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the check tests instead")
    args = ap.parse_args()
    if not args.test and (args.workload is None or args.seed is None
                          or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    exe = build("perfbench_tests" if args.test else "perfbench")
    if exe is None:
        return 1
    if args.test:
        # The tests write their small captures to the build directory.
        return subprocess.run([str(exe)], cwd=exe.parent,
                              stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode

    work = build_root() / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work)]
    if args.trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
