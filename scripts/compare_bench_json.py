#!/usr/bin/env python3
"""Perf-trend diff for ResultStore JSON artifacts.

Usage: compare_bench_json.py PREVIOUS.json CURRENT.json

Compares the per-point metrics of two BENCH_*.json files (e.g. the
previous CI run's BENCH_sim_throughput.json against this run's):

  - deterministic simulator counters (cycles, warp_instrs, plus
    any metric ending in _cycles — e.g. the op-graph overlap model
    of BENCH_batch_inference.json: graph_serial_cycles,
    graph_makespan_cycles, graph_critical_path_cycles — and the
    graph_levels / graph_lanes structure counters) must match
    exactly — a drift means the simulator's timing model or the
    dependency scheduling changed and the change should say so.
    Drift is BLOCKING (exit 1): regenerate the goldens/artifacts
    deliberately or fix the regression;
  - the memory planner's accounting (the mem_peak_* columns of
    graph runs) is likewise a pure function of the op-graph: every
    metric ending in _bytes is gated as blocking-exact;
  - sampled-simulation estimates (BENCH_sampled_sim.json) form
    their own class: an est_* metric carries a declared absolute
    error bar in its err_* sibling, so it must stay within the
    larger of the two runs' bars rather than match exactly — the
    estimate is allowed to move when the sampler or the timing
    model changes, as long as it still lands inside its own
    advertised uncertainty. The sample shape itself
    (*_sampled_ctas, population_ctas) is blocking-exact, since
    plans are deterministic; err_* drift is warn-only;
  - wall-clock metrics (*_ms, and *_speedup quotients of them) may
    jitter; a slowdown beyond --tolerance (default 25%) is
    reported as a warning only (CI hosts are too noisy to gate
    on);
  - points present on only one side are reported (grid changed) —
    a disappeared point is blocking, a new point is informational.

Exit status: 0 clean or wall-clock warnings only, 1 deterministic
drift / disappeared points, 2 usage errors.
"""

import json
import sys

DETERMINISTIC = ("cycles", "warp_instrs", "graph_levels",
                 "graph_lanes",
                 # Memory-hierarchy counters: MSHR occupancy and the
                 # banked DRAM model are pure functions of the access
                 # stream (mshr_stall_cycles is caught by the _cycles
                 # suffix).
                 "dram_row_hits", "dram_row_misses",
                 "dram_queue_peak",
                 # src/obs tracing: accepted/dropped event counts
                 # are pure functions of the deterministic run (the
                 # obs_* prefix catches the per-phase counts); the
                 # trace's wall write cost (trace_write_ms) stays
                 # warn-only via the _ms suffix.
                 "trace_dropped_events",
                 # BENCH_sampled_sim.json: sample plans are pure
                 # functions of (kernel identity, launch shape,
                 # sample.seed), so the sample shape is exact.
                 "population_ctas")
DETERMINISTIC_SUFFIXES = ("_cycles", "_bytes", "_sampled_ctas")
WALLCLOCK_SUFFIXES = ("_ms", "_speedup")


def is_deterministic(key):
    return (key in DETERMINISTIC or key.startswith("obs_") or
            key.endswith(DETERMINISTIC_SUFFIXES))


def err_key_of(key):
    """The err_* sibling of an est_* metric key, else None."""
    if key.startswith("est_"):
        return "err_" + key[len("est_"):]
    i = key.find("_est_")
    if i >= 0:
        return key[:i] + "_err_" + key[i + len("_est_"):]
    return None


def load_points(path):
    with open(path) as f:
        doc = json.load(f)
    return {p["label"]: p for p in doc.get("points", [])}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    tolerance = 0.25
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
    if len(args) != 2:
        print(__doc__)
        return 2
    prev_path, cur_path = args
    prev = load_points(prev_path)
    cur = load_points(cur_path)

    blocking = []
    warnings = []
    for label in sorted(set(prev) | set(cur)):
        if label not in cur:
            blocking.append(f"point disappeared: {label}")
            continue
        if label not in prev:
            print(f"note: new point (no history): {label}")
            continue
        # Per-class counters are emitted as exact integers (metrics
        # go through %.6g and can hide small drift), so they are the
        # authoritative determinism check.
        pc = {c["class"]: c for c in prev[label].get("classes", [])}
        cc = {c["class"]: c for c in cur[label].get("classes", [])}
        for cls in sorted(set(pc) & set(cc)):
            for key in ("cycles", "warp_instrs"):
                a, b = pc[cls].get(key), cc[cls].get(key)
                if a != b:
                    blocking.append(
                        f"{label}/{cls}: deterministic counter "
                        f"'{key}' drifted {a} -> {b}")
        pm = prev[label].get("metrics", {})
        cm = cur[label].get("metrics", {})
        for key in sorted(set(pm) & set(cm)):
            a, b = pm[key], cm[key]
            ek = err_key_of(key)
            if ek is not None:
                # Estimate class: hold the estimate to its own
                # declared error bar (the larger of the two runs'),
                # not to exact equality.
                bar = max(abs(pm.get(ek, 0.0)), abs(cm.get(ek, 0.0)))
                if abs(b - a) > bar:
                    blocking.append(
                        f"{label}: estimate '{key}' moved {a:.6g} "
                        f"-> {b:.6g}, outside its declared error "
                        f"bar {bar:.6g}")
                continue
            if "_err_" in key or key.startswith("err_"):
                if a > 0 and abs(b - a) / a > tolerance:
                    warnings.append(
                        f"{label}: error bar '{key}' changed "
                        f"{a:.4g} -> {b:.4g}")
                continue
            if is_deterministic(key):
                if a != b:
                    blocking.append(
                        f"{label}: deterministic metric '{key}' "
                        f"drifted {a} -> {b}")
            elif key.endswith(WALLCLOCK_SUFFIXES):
                if a > 0 and (b - a) / a > tolerance:
                    warnings.append(
                        f"{label}: '{key}' slowed "
                        f"{a:.2f} -> {b:.2f} "
                        f"(+{100.0 * (b - a) / a:.0f}%, "
                        f"tolerance {100.0 * tolerance:.0f}%)")

    for w in warnings:
        print(f"  WARNING (wall-clock, non-blocking): {w}")
    if blocking:
        print(f"perf-trend check: {len(blocking)} BLOCKING "
              f"finding(s) comparing {prev_path} -> {cur_path}:")
        for p in blocking:
            print(f"  DRIFT: {p}")
        print("Deterministic counters moved: either fix the "
              "regression or land the intentional timing-model "
              "change with regenerated artifacts/goldens.")
        return 1
    print(f"perf-trend check: {cur_path} clean against {prev_path}"
          + (f" ({len(warnings)} wall-clock warning(s))"
             if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
