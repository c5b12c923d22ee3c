#!/usr/bin/env bash
# Same-host A/B run of the benchmark: builds BASE and HEAD, each into its
# own tree and build directory by name, then runs every workload RUNS
# times per side, alternating which side goes first, and prints each
# side's median and quartiles per metric x workload.
#
#   perfbench/ab.sh [BASE_REF [HEAD_REF]]      (default: HEAD~1 HEAD)
#
# Every workload of BENCHMARK.json runs for its run_seconds.
# Environment: RUNS (pairs per workload, default 10), AB_DIR (work
# directory, default .bench_ab).  Both sides run the benchmark code of
# the working tree (perfbench/ and BENCHMARK.json are copied over the
# base tree), so only the program differs.  Seeds are 1000+i, the same
# on both sides of pair i.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BASE_REF="${1:-HEAD~1}"
HEAD_REF="${2:-HEAD}"
RUNS="${RUNS:-10}"
AB_DIR="${AB_DIR:-$REPO/.bench_ab}"
SPEC="$REPO/BENCHMARK.json"
WORKLOADS="$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$SPEC")"
SECS="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$SPEC")"

# Export REF's tree as variant NAME, put the working tree's benchmark
# in it, and build it into the variant's own build directory.
build_variant() {
  local name="$1" ref="$2" tree="$AB_DIR/$1"
  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$REPO" archive "$ref" | tar -x -C "$tree"
  rm -rf "$tree/perfbench"
  cp -r "$REPO/perfbench" "$tree/perfbench"
  cp "$SPEC" "$tree/BENCHMARK.json"
  echo "ab: building $name ($ref: $(git -C "$REPO" rev-parse --short "$ref"))" >&2
  local gen=()
  command -v ninja >/dev/null && gen=(-G Ninja)
  cmake -S "$tree/perfbench" -B "$tree/.bench_build/perfbench" \
    -DCMAKE_BUILD_TYPE=Release "${gen[@]}" >/dev/null
  cmake --build "$tree/.bench_build/perfbench" -j 4 >/dev/null
}

run_side() {
  local name="$1" workload="$2" i="$3"
  (cd "$AB_DIR/$name" &&
    python3 perfbench/run.py --workload "$workload" --seed $((1000 + i)) \
      --seconds "$SECS" --trace 0 2>/dev/null | tail -n 1 \
      >"$AB_DIR/results/$name-$workload-$i.json")
}

build_variant base "$BASE_REF"
build_variant head "$HEAD_REF"
mkdir -p "$AB_DIR/results"
rm -f "$AB_DIR/results/"*.json

IFS=',' read -r -a workloads <<<"$WORKLOADS"
for ((i = 1; i <= RUNS; i++)); do
  for w in "${workloads[@]}"; do
    if ((i % 2)); then first=base second=head; else first=head second=base; fi
    echo "ab: pair $i/$RUNS $w ($first first)" >&2
    run_side "$first" "$w" "$i"
    run_side "$second" "$w" "$i"
  done
done

python3 - "$SPEC" "$AB_DIR/results" "$RUNS" "$WORKLOADS" <<'EOF'
import json, os, statistics, sys

spec, results, runs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4].split(",")
metrics = json.load(open(spec))["end_to_end"]

def load(side, w):
    out = []
    for i in range(1, runs + 1):
        try:
            r = json.load(open(os.path.join(results, f"{side}-{w}-{i}.json")))
            out.append(r)
        except (OSError, ValueError):
            out.append(None)
    return out

def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (0, 0, 0)
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]

print(f"{'workload':13s} {'metric':20s} {'base q1/med/q3':>32s} {'head q1/med/q3':>32s} {'head/base':>9s} {'wins':>6s}  verdict")
for w in workloads:
    base, head = load("base", w), load("head", w)
    bad = sum(1 for r in base + head if r is None or not r["correct"])
    if bad:
        print(f"{w}: {bad} run(s) failed or were incorrect")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                 for b, h in zip(base, head) if b and h]
        if not pairs:
            continue
        bv, hv = [p[0] for p in pairs], [p[1] for p in pairs]
        bq, hq = quartiles(bv), quartiles(hv)
        wins = sum(1 for b, h in pairs if (h < b if lower else h > b))
        losses = sum(1 for b, h in pairs if (h > b if lower else h < b))
        base_iqr = bq[2] - bq[0]
        diff = hq[1] - bq[1]
        if wins >= 0.9 * len(pairs) and abs(diff) > base_iqr:
            verdict = "better"
        elif losses >= 0.9 * len(pairs) and abs(diff) > base_iqr:
            verdict = "worse"
        elif bq[1] and abs(diff) / abs(bq[1]) > m["bound"]:
            verdict = "unresolved (beyond bound)"
        else:
            verdict = "within noise"
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{w:13s} {name:20s} {fmt(bq):>32s} {fmt(hq):>32s} {ratio:9.4f} {wins:2d}/{len(pairs):<3d}  {verdict}")
EOF
