#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    # run every workload for seeds 1..10 and keep each run's stdout
    python3 perfbench/compare.py collect --out runs/a --seeds 1-10
    # spread of one set: quartiles of each end-to-end metric vs its bound
    python3 perfbench/compare.py spread runs/a
    # two sets: medians, quartiles and whether they agree within the bound
    python3 perfbench/compare.py diff runs/a runs/b

A run's log is its stdout: the "# stamp: {...}" line names the workload and
seed, and the last line is the JSON result. Bounds and the better direction
come from BENCHMARK.json at the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def parse_log(path):
    stamp, result = None, None
    for line in path.read_text().splitlines():
        if line.startswith("# stamp: "):
            stamp = json.loads(line[len("# stamp: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if stamp is None or result is None:
        raise ValueError(f"{path}: no stamp or result line")
    return stamp, result


def load_set(directory):
    """{workload: {metric: [values]}} over the untraced *.log in `directory`.

    A run that failed or reports correct=false is left out, with a warning.
    """
    runs = {}
    for path in sorted(Path(directory).glob("*.log")):
        try:
            stamp, result = parse_log(path)
        except ValueError as err:
            print(f"skipped: {err}", file=sys.stderr)
            continue
        if stamp.get("trace"):
            continue
        if not result["correct"]:
            print(f"skipped: {path} reports correct=false", file=sys.stderr)
            continue
        per = runs.setdefault(stamp["workload"], {})
        for name, metric in result["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_collect(args):
    spec, _ = load_spec()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    workloads = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec["run_seconds"]
    for seed in seeds:
        for workload in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
            log = out / f"{workload}.{seed}{'.trace' if args.trace else ''}.log"
            log.write_text(proc.stdout)
            print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)
            if proc.returncode != 0:
                print("  " + "\n  ".join(proc.stderr.strip().splitlines()[-5:]))
            lines = proc.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                result = json.loads(lines[-1])
                print(f"  correct {result['correct']}, attempted {result['attempted']}, "
                      f"failed {result['failed']}")
                for name, metric in sorted(result["metrics"].items()):
                    print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")


def cmd_spread(args):
    _, bounds = load_spec()
    ok = True
    for workload, metrics in sorted(load_set(args.set).items()):
        print(f"{workload}:")
        for name, values in sorted(metrics.items()):
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            limit = bound / 3 if bound is not None else None
            flag = "" if limit is None or spread < limit or name == "setup_s" else "  <-- above bound/3"
            ok = ok and not flag
            print(f"  {name:20s} n={len(values):2d} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.2%}  bound/3 {limit if limit is None else f'{limit:.2%}'}{flag}")
    return 0 if ok else 1


def cmd_diff(args):
    _, bounds = load_spec()
    a, b = load_set(args.a), load_set(args.b)
    ok = True
    for workload in sorted(set(a) | set(b)):
        print(f"{workload}:")
        for name in sorted(set(a.get(workload, {})) | set(b.get(workload, {}))):
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"  {name:20s} missing in {'A' if not va else 'B'}")
                ok = False
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spec = bounds.get(name, {})
            bound = spec.get("bound", 0.0)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            worse = -change if spec.get("better") == "higher" else change
            verdict = "agree" if abs(change) <= bound else ("WORSE" if worse > 0 else "better")
            ok = ok and verdict != "WORSE"
            print(f"  {name:20s} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  change {change:+7.2%}  "
                  f"bound {bound:.0%}  {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run workloads over a seed range, one log per run")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    p.add_argument("--workloads", default="all", help="comma-separated, or all")
    p.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread", help="quartile spread of each metric in one set")
    p.add_argument("set")
    p = sub.add_parser("diff", help="compare two sets against the recorded bounds")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
