#!/usr/bin/env python3
"""Build and run the host-performance benchmark (bench/host_perf).

Run from the root of a source tree. Three ways to call it:

  run.py --workload NAME --seed N --seconds S --trace 0|1
      One measured run of one workload. Builds host_perf if needed,
      runs it, and prints as the last line one JSON object:
      {"correct", "attempted", "failed", "metrics"}. With --trace 0
      the metrics are the end-to-end metrics of BENCHMARK.json, with
      --trace 1 its per-layer metrics. --seconds is accepted and
      ignored: every workload runs its own fixed pass count, so every
      commit does the same work.

  run.py run [--sets K] [--seed N] [--traced] [--smoke] [--json OUT]
      Every workload, K times each. Prints each metric with its unit,
      median, quartiles and sample count. --smoke runs a reduced grid
      with one pass.

  run.py compare PARENT CHANGE [--pairs 10] [--seed N]
      Builds both source trees and alternates their runs over the
      pairs, then applies the gain rule of the README to each
      end-to-end metric and workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["paper-grid", "single-point", "web-sampled", "hw-profile"]
BUILD_DIR = Path("build") / "host_perf"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    """Workers per process: 4, or fewer when fewer cores are usable."""
    return min(4, len(os.sched_getaffinity(0)))


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def build(root):
    """Configure (once) and build host_perf under ROOT; return it."""
    if not any((root / "src").rglob("*.cpp")):
        raise RuntimeError(f"no simulator sources under {root / 'src'}")
    bdir = root / BUILD_DIR
    jobs = str(threads())
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "bench" / "host_perf"),
                        "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return bdir / "host_perf"


def run_host_perf(exe, root, workload, seed, extra, traced):
    """Run one workload in its own process; return its JSON report."""
    out = root / BUILD_DIR / "out"
    out.mkdir(parents=True, exist_ok=True)
    report = out / f"{workload}.json"
    report.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--threads", str(threads()), "--json", str(report),
           "--emit", str(out / f"{workload}.results.json")] + extra
    if traced:
        cmd += ["--traced", str(out / f"{workload}.spans.json")]
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if not report.exists():
        raise RuntimeError(f"host_perf {workload} exited {proc.returncode} "
                           "without a report")
    data = json.loads(report.read_text())
    data["correct"] = data["correct"] and proc.returncode == 0
    return data


def single_run(args):
    root = HERE.parents[1]
    spec = load_spec(root)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise RuntimeError(f"unknown workload {args.workload}")
    exe = build(root)
    data = run_host_perf(exe, root, args.workload, args.seed, [],
                         traced=args.trace == 1)
    section, wanted = (("per_layer", spec["per_layer"]) if args.trace
                       else ("end_to_end", spec["end_to_end"]))
    metrics = {}
    for m in wanted:
        got = data[section][m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": data["correct"],
                      "attempted": data["attempted"],
                      "failed": data["failed"], "metrics": metrics}))


def quartiles(values):
    """Linear interpolation between order statistics, as host_perf."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs):
    """workload -> metric -> value list, over both metric sections."""
    table = {}
    for r in runs:
        for section in ("end_to_end", "per_layer"):
            for name, m in r[section].items():
                table.setdefault(r["workload"], {}).setdefault(
                    name, {"unit": m["unit"], "values": []})[
                    "values"].append(m["value"])
    return table


def print_summary(table):
    for workload, metrics in table.items():
        print(f"\n{workload}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
              f"  n  unit")
        for name, m in sorted(metrics.items()):
            q1, med, q3 = quartiles(m["values"])
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{len(m['values']):2d}  {m['unit']}")


def run_sets(args):
    root = HERE.parents[1]
    exe = build(root)
    extra = ["--smoke"] if args.smoke else []
    runs = []
    for k in range(args.sets):
        for w in args.workloads:
            log(f"set {k + 1}/{args.sets}: {w}")
            data = run_host_perf(exe, root, w, args.seed, extra,
                                 traced=args.traced)
            data["set"] = k + 1
            runs.append(data)
            if not data["correct"]:
                log(f"{w}: correctness check FAILED")
    table = summarize(runs)
    print_summary(table)
    digests = {}
    for r in runs:
        digests.setdefault(r["workload"], set()).add(r["stats_digest"])
    for w, ds in digests.items():
        print(f"{w}: stats_digest {' '.join(sorted(ds))}"
              + ("" if len(ds) == 1 else "  (DIFFERS between sets)"))
    if args.json:
        host = runs[0]["host"] if runs else {}
        Path(args.json).write_text(json.dumps(
            {"host": host, "seed": args.seed, "sets": args.sets,
             "smoke": args.smoke, "runs": runs}, indent=1) + "\n")
    ok = all(r["correct"] for r in runs) and all(
        len(ds) == 1 for ds in digests.values())
    return 0 if ok else 1


def verdict(metric, parent, change):
    """The README's rule for one metric on one workload."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    better = [(c < p) if lower else (c > p) for p, c in zip(parent, change)
              if c != p]
    wins = sum(better)
    worse_by = ((mc - mp) if lower else (mp - mc)) / mp
    all_better = (max(change) < min(parent)) if lower else (
        min(change) > max(parent))
    if wins >= 0.9 * len(parent) and abs(mc - mp) > q3 - q1 and \
            worse_by < 0:
        return wins, "improved"
    if (q3 - q1) / mp > bound and not all_better:
        return wins, "unresolved"
    if worse_by > bound:
        return wins, "regressed"
    return wins, "within bound"


def compare(args):
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    spec = load_spec(HERE.parents[1])
    exes = {"parent": build(parent), "change": build(change)}
    roots = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            for w in args.workloads:
                log(f"pair {i + 1}/{args.pairs}: {side} {w}")
                runs[side].append(run_host_perf(
                    exes[side], roots[side], w, args.seed, [], False))
    print(f"{'workload':13} {'metric':12} {'parent':>11} {'change':>11} "
          f"{'delta':>8} {'wins':>6}  verdict")
    for w in args.workloads:
        for m in spec["end_to_end"]:
            vals = {s: [r["end_to_end"][m["name"]]["value"]
                        for r in runs[s] if r["workload"] == w]
                    for s in runs}
            wins, v = verdict(m, vals["parent"], vals["change"])
            mp = statistics.median(vals["parent"])
            mc = statistics.median(vals["change"])
            print(f"{w:13} {m['name']:12} {mp:11.5g} {mc:11.5g} "
                  f"{(mc - mp) / mp:+8.2%} {wins:3d}/{args.pairs:<2d} {v}")
        digests = {s: {r["stats_digest"] for r in runs[s]
                       if r["workload"] == w} for s in runs}
        same = digests["parent"] == digests["change"]
        print(f"{w:13} stats_digest "
              + ("identical" if same else "DIFFERS (a fidelity change "
                 "must say so)"))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("run", "compare"):
        ap = argparse.ArgumentParser(prog="run.py")
        sub = ap.add_subparsers(dest="mode", required=True)
        r = sub.add_parser("run")
        r.add_argument("--sets", type=int, default=1)
        r.add_argument("--seed", type=int, default=7)
        r.add_argument("--traced", action="store_true")
        r.add_argument("--smoke", action="store_true")
        r.add_argument("--json")
        r.add_argument("--workloads", nargs="+", default=WORKLOADS)
        c = sub.add_parser("compare")
        c.add_argument("parent")
        c.add_argument("change")
        c.add_argument("--pairs", type=int, default=10)
        c.add_argument("--seed", type=int, default=7)
        c.add_argument("--workloads", nargs="+", default=WORKLOADS)
        args = ap.parse_args()
        return run_sets(args) if args.mode == "run" else compare(args)
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single_run(ap.parse_args())
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        sys.exit(2)
