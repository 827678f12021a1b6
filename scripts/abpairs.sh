#!/bin/sh
# Interleaved A/B pairs of one bench/ workload: the tree at <git-ref>
# ("parent") against the working tree ("change").
#
# Usage: scripts/abpairs.sh <git-ref> <workload> [pairs]
#        (make bench-ab REF=<git-ref> WORKLOAD=<workload> [PAIRS=n])
#
# The ref's tree is exported with `git archive` into a temporary
# directory, removed again on exit; nothing is written into .git. Each
# pair runs
#   sh bench/run.sh --workload W
# once in each tree, alternating which side goes first; bench/ applies
# its own seed and run length. Every run's result line is printed
# tagged with its side and pair index. Then, for every end-to-end
# metric of BENCHMARK.json (its `better` field gives the direction), it
# prints both medians, the parent's interquartile range, in how many
# pairs the change was better, and the relative change of the median
# against the metric's `bound`: "WORSE" marks a median that moved the
# wrong way by more than the bound. Default: 10 pairs.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 <git-ref> <workload> [pairs]" >&2
  exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
tmp=$(mktemp -d)
parent="$tmp/parent"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$parent"
git archive "$ref" | tar -x -C "$parent"
results="$tmp/results"
: >"$results"

# run_side <side> <dir> <pair>: one bench run; appends "side pair json".
run_side() {
  echo "abpairs: pair $3 $1 ($2)" >&2
  status=0
  out=$(cd "$2" && sh bench/run.sh --workload "$workload") || status=$?
  line=$(printf '%s\n' "$out" | tail -n 1)
  case $line in
  "{"*) ;;
  *)
    echo "abpairs: $1 run of pair $3 printed no result line (exit $status)" >&2
    exit 1
    ;;
  esac
  echo "$1 $3 $line" | tee -a "$results"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent "$parent" "$i"
    run_side change "$root" "$i"
  else
    run_side change "$root" "$i"
    run_side parent "$parent" "$i"
  fi
  i=$((i + 1))
done

awk -v pairs="$pairs" '
# metric returns the value of "name" in one result line, or "".
function metric(line, name,   i, rest) {
  i = index(line, "\"" name "\":{\"value\":")
  if (i == 0) return ""
  rest = substr(line, i + length(name) + 12)
  sub(/[,}].*/, "", rest)
  return rest
}
# quantile of v[1..n] (sorted in place) at p, interpolated.
function quantile(v, n, p,   i, j, t, h, lo) {
  for (i = 2; i <= n; i++) {
    t = v[i]
    for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
    v[j + 1] = t
  }
  h = (n - 1) * p + 1
  lo = int(h)
  if (lo >= n) return v[n]
  return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
FNR == NR {
  # BENCHMARK.json: name, better and bound of every end_to_end entry.
  if ($0 ~ /"end_to_end"/) inE2E = 1
  else if ($0 ~ /"per_layer"/) inE2E = 0
  if (inE2E && $0 ~ /"name"/) { n = $0; gsub(/.*"name": *"|".*/, "", n); names[++nm] = n }
  if (inE2E && $0 ~ /"better"/) { b = $0; gsub(/.*"better": *"|".*/, "", b); better[names[nm]] = b }
  if (inE2E && $0 ~ /"bound"/) { b = $0; gsub(/.*"bound": *|[ ,]*$/, "", b); bound[names[nm]] = b + 0 }
  next
}
{
  side = $1; pair = $2
  line = $0
  for (k = 1; k <= nm; k++) val[side, pair, names[k]] = metric(line, names[k])
  if (line !~ /"correct":true/ || line !~ /"failed":0[,}]/) bad[side]++
}
END {
  printf "\n%-14s %-7s %14s %14s %29s %6s %8s %6s\n", "metric", "better", "parent_median", "change_median", "parent_iqr", "wins", "delta", "bound"
  for (k = 1; k <= nm; k++) {
    m = names[k]; np = 0; nc = 0; wins = 0; both = 0
    for (p = 1; p <= pairs; p++) {
      a = val["parent", p, m]; c = val["change", p, m]
      if (a != "") par[++np] = a + 0
      if (c != "") chg[++nc] = c + 0
      if (a == "" || c == "") continue
      both++
      if ((better[m] == "higher" && c + 0 > a + 0) || (better[m] == "lower" && c + 0 < a + 0)) wins++
    }
    if (np == 0 || nc == 0) { printf "%-14s %-7s %14s\n", m, better[m], "absent"; continue }
    for (p = 1; p <= np; p++) tmp[p] = par[p]
    q1 = quantile(tmp, np, 0.25); q3 = quantile(tmp, np, 0.75)
    pm = quantile(par, np, 0.5); cm = quantile(chg, nc, 0.5)
    # delta is the relative change of the median; worse is its share
    # in the wrong direction, compared against the bound.
    delta = (pm == 0) ? 0 : (cm - pm) / (pm < 0 ? -pm : pm)
    worse = (better[m] == "higher") ? -delta : delta
    printf "%-14s %-7s %14.6g %14.6g %29s %3d/%-2d %+7.1f%% %5.0f%%%s\n", m, better[m],
      pm, cm, sprintf("%.6g-%.6g", q1, q3), wins, both, 100 * delta, 100 * bound[m],
      (worse > bound[m]) ? "  WORSE" : ""
  }
  for (s in bad) printf "WARNING: %d %s run(s) wrong or with failed operations\n", bad[s], s
}
' BENCHMARK.json "$results"
