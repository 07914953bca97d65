#!/usr/bin/env python3
"""Builds the whole-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload offline_trace --seed 1 --seconds 10 --trace 0

The build tree is .bench_build at the repository root (or $CARGO_TARGET_DIR
when set). The benchmark's report lines go to stdout prefixed with "# ", and
the last line of stdout is the JSON result. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline_trace", "serve_stream")


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def source_digest():
    """The git commit when there is one, else a sha256 of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=10)
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build(out):
    """Configures (once) and builds cpt_perfbench; tool output goes to stderr."""
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / "cpt_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    run_dir = out / "run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--run-dir={run_dir}",
           f"--source={source_digest()}"]
    # Three set-ups, the measured seconds (a traced run measures twice, half
    # as long each time), probes and scoring, with room for a slow host.
    timeout_s = 3 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {timeout_s} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {args.workload} failed with exit code {proc.returncode}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
