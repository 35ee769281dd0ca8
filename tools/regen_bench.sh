#!/usr/bin/env sh
# Regenerate the committed benchmark records: bench/repro_digests.tsv and
# the BENCH_*.json files at the repository root.
#
# Usage (from anywhere inside the checkout):
#   tools/regen_bench.sh [build-dir]
#
# The build directory defaults to ./build. The script first rebuilds
# nidc_repro and rewrites bench/repro_digests.tsv from `nidc_repro all`:
# one CRC-32C per paper table, figure, ablation and probe, which the
# repro.<artifact> tests check. A changed digest is a changed paper
# number. Report it as a bug unless the change means to move that number,
# and then say which artifacts move and why.
#
# It then configures and builds the two perf-bench targets if the
# binaries are missing, and runs them with NIDC_BENCH_JSON_DIR pointed at
# the repo root so the JSON lands where it is committed:
#
#   BENCH_sweep_hotpath.json   bench_sweep_hotpath  (hot-path sweep ladder)
#   BENCH_capacity.json        bench_capacity       (multi-tenant capacity)
#
# Knobs (see the doc comment at the top of each bench .cc for the rest):
#   NIDC_SWEEP_SCALE      sweep corpus scale   (default 1.0 = paper scale)
#   NIDC_CAPACITY_SCALE   capacity corpus scale (default 0.3)
#   NIDC_CAPACITY_TENANTS tenant count          (default 8)
#
# Numbers are machine-dependent: regenerate on a quiet box and eyeball
# `git diff BENCH_*.json` before committing — the shapes (speedup ratios,
# identical:true) matter, the absolute seconds do not. The CI gates
# (NIDC_REQUIRE_*_SPEEDUP, NIDC_REQUIRE_SHARD_SPEEDUP=2.5) run against
# freshly-built binaries, not these files; the committed JSON is the
# human-readable record.

set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

echo "== nidc_repro all =="
cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" --target nidc_repro -j
repro_out=$(mktemp)
# Exit 3 means every artifact ran and some digests differ from the
# committed ones; any other failure (1: a step failed) stops the script
# before the file is touched.
"$build_dir/bench/nidc_repro" all > "$repro_out" || [ $? -eq 3 ]
{
  echo "# Digests of nidc_repro's paper artifacts: the CRC-32C of each"
  echo "# artifact's quality text (wall-clock figures excluded). The"
  echo "# repro.<artifact> tests check these rows:"
  echo "#   <artifact> <crc32c>"
  echo "# A changed digest is a changed paper number: a bug to report"
  echo "# unless the change means to move it. tools/regen_bench.sh"
  echo "# rewrites this file."
  awk '$1 == "digest" { print $2, $3 }' "$repro_out"
} > "$repo_root/bench/repro_digests.tsv"
rm -f "$repro_out"

if [ ! -x "$build_dir/bench/bench_sweep_hotpath" ] || \
   [ ! -x "$build_dir/bench/bench_capacity" ]; then
  echo "regen_bench: building bench targets in $build_dir" >&2
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bench_sweep_hotpath bench_capacity -j
fi

export NIDC_BENCH_JSON_DIR="$repo_root"

echo "== bench_sweep_hotpath =="
"$build_dir/bench/bench_sweep_hotpath"

echo "== bench_capacity =="
"$build_dir/bench/bench_capacity"

echo
echo "Wrote $repo_root/bench/repro_digests.tsv"
echo "      $repo_root/BENCH_sweep_hotpath.json"
echo "      $repo_root/BENCH_capacity.json"
echo "Review with: git diff -- bench/repro_digests.tsv BENCH_sweep_hotpath.json BENCH_capacity.json"
