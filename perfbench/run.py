#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds perfbench/ (which compiles the hsfi sources in ../src) into the build
directory, runs one workload through the campaign_bench binary, and relays
its report. The last line of stdout is the result JSON:

    python3 perfbench/run.py --workload fc_grid --seed 1 --seconds 45 --trace 0

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the current directory. --trace 1 also writes a Chrome
trace-event file there (trace-<workload>-seed<N>.json).
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fc_grid", "bisect_fork")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bdir):
    """Configures (once) and builds campaign_bench; build output to stderr.
    Compiler temporaries go under the build directory too."""
    jobs = str(min(4, os.cpu_count() or 1))
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(bdir), "--target", "campaign_bench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def commit_id():
    """The git commit when there is a repository here, else a digest of
    the source tree the binary was built from."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha1:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"hsfi sources not found under {ROOT / 'src'}")
        return 1

    bdir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bdir = bdir.resolve()
    if not build(bdir):
        log("build failed")
        return 1

    cmd = [str(bdir / "campaign_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spec-dir", str(HERE / "specs")]
    if args.trace:
        cmd += ["--trace-out",
                str(bdir / f"trace-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, HSFI_COMMIT=commit_id())
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"campaign_bench exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (json.JSONDecodeError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        log(f"campaign_bench exited {proc.returncode} without a result")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
