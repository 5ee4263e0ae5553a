#!/usr/bin/env bash
# Did this change move anything? The one way to answer:
#
#   bash scripts/benchpair.sh <base-ref> [pairs]
#
# checks <base-ref> out into a git worktree under .bench_build/, runs [pairs]
# (default 3) pairs of base and head over all seven BENCHMARK.json workloads
# through each side's own benchmark/run.sh, alternating which side goes first,
# and exits with `spes-bench -compare`'s verdict: non-zero when an end-to-end
# metric is worse than the base beyond its BENCHMARK.json bound, when any
# same-seed count differs, or when a run fails a check. A metric whose
# run-to-run spread exceeds its bound is printed as "unresolved": not a
# failure, and not evidence of "unchanged" either — run more pairs. Pair i
# uses seed i on both sides, so counts are compared seed by seed. Head is the
# working tree as it stands, committed or not.
#
# Needs no network. Everything written stays under .bench_build/; the
# worktree and its entry in .git/worktrees are removed on exit.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <base-ref> [pairs]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${2:-3}
out="$root/.bench_build/benchpair"
base="$out/base"

cleanup() {
  git -C "$root" worktree remove --force "$base" 2>/dev/null || true
  git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$out"
mkdir -p "$out"
sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
git -C "$root" worktree add --quiet --detach "$base" "$sha"
echo "benchpair: base $sha, head $(git -C "$root" rev-parse HEAD) + working tree, $pairs pairs"

workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$root/BENCHMARK.json")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
for pair in $(seq 1 "$pairs"); do
  order="base head"
  [ $((pair % 2)) -eq 0 ] && order="head base"
  for w in $workloads; do
    for side in $order; do
      dir=$root
      [ "$side" = base ] && dir=$base
      echo "benchpair: pair $pair/$pairs  $w  $side"
      if ! bash "$dir/benchmark/run.sh" --workload "$w" --seed "$pair" --seconds "$seconds" --trace 0 \
          --out "$out/$side.jsonl" > "$out/last-run.log" 2>&1; then
        cat "$out/last-run.log"
        echo "benchpair: $w failed on $side (seed $pair)" >&2
        exit 1
      fi
    done
  done
done
bash "$root/benchmark/run.sh" -compare "$out/base.jsonl" "$out/head.jsonl"
