#!/usr/bin/env bash
# Regenerate tests/golden/ from the current simulator: the per-kernel
# counter goldens (*.json) and the paper figures at quick and full
# scale (paper_quick_fig{5..9}.csv, paper_full_fig{5..9}.csv).
#
# Usage: scripts/update_goldens.sh [BUILD_DIR]
#
# Only run this when a timing-model change is *intentional*: the
# golden files pin every deterministic simulator counter, and
# golden_stats_test (JSON) and CI's two paper-pass steps (CSV, by
# cmp) fail on any drift. Commit the regenerated files together with the
# change that moved them, and say why.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${1:-build}
if [ ! -d "$build_dir" ]; then
    cmake -B "$build_dir" -S .
fi
cmake --build "$build_dir" --target golden_stats_test bench_paper -j

# Snapshot the committed goldens so the summary below can show what
# the regeneration actually moved, counter by counter.
snapshot=$(mktemp -d)
trap 'rm -rf "$snapshot"' EXIT
cp tests/golden/*.json "$snapshot"/ 2>/dev/null || true

"$build_dir/golden_stats_test" --update-golden
# Figs. 5-9 at quick and full scale; every cell is a deterministic
# counter.
"$build_dir/bench_paper" --quick --csv tests/golden/paper_quick_ >/dev/null
"$build_dir/bench_paper" --csv tests/golden/paper_full_ >/dev/null
echo "goldens regenerated under tests/golden/ — review the diff:"
git -c color.ui=always diff --stat -- tests/golden || true

# Per-counter pre/post summary: aggregate each counter across every
# golden kernel and print only the ones that moved, so the commit
# message can say exactly which parts of the timing model shifted.
python3 - "$snapshot" <<'EOF'
import glob, json, os, sys

snapshot = sys.argv[1]
pre, post = {}, {}

def fold(path, into):
    with open(path) as f:
        doc = json.load(f)
    for k in doc.get("kernels", []):
        for key, val in k.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                into[key] = into.get(key, 0) + val

for path in sorted(glob.glob(os.path.join(snapshot, "*.json"))):
    fold(path, pre)
for path in sorted(glob.glob("tests/golden/*.json")):
    fold(path, post)

moved = sorted(k for k in set(pre) | set(post)
               if pre.get(k) != post.get(k))
if not moved:
    print("per-counter summary: no counter totals changed")
else:
    width = max(len(k) for k in moved)
    print(f"per-counter summary ({len(moved)} counter(s) moved, "
          f"totals across all golden kernels):")
    for k in moved:
        a, b = pre.get(k), post.get(k)
        if a is None:
            print(f"  {k:<{width}}  (new counter)     -> {b:g}")
        elif b is None:
            print(f"  {k:<{width}}  {a:g} -> (removed)")
        else:
            pct = f" ({100.0 * (b - a) / a:+.1f}%)" if a else ""
            print(f"  {k:<{width}}  {a:g} -> {b:g}{pct}")
EOF
