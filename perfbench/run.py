#!/usr/bin/env python3
"""Builds and runs perfbench, clfuzz's end-to-end benchmark.

Usage, from the root of a clfuzz checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles clfuzz from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs one workload. Build and progress output go to
stderr; the last line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Per-run result files (host block, toggles, extra figures) and the traced
run's spans are written under the build directory's out/ folder.
Exits non-zero when the sources are missing, the build fails, an output
differs from its reference, or a count drifts between traced runs.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hunt_reduce_triage", "sweep_vm", "sweep_compile_procs",
             "sweep_compile_fleet")
# A run must end within 180 s; the benchmark itself is sized well below.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of the program sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".h", ".inc", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()[:12] + "+src:" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src:" + source_digest()


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no clfuzz sources (src/) next to perfbench/; run from the "
             "root of a clfuzz checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--expected-dir", os.path.join(HERE, "expected"),
           "--commit", commit_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"no result (exit code {r.returncode})", r.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(json.dumps(result))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
