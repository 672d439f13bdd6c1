#!/usr/bin/env bash
# Perf trajectory: builds Release, runs the engine + ingest + tracer
# benches, and emits BENCH_pr10.json (frames/sec, p50/p99 per-frame latency,
# the ingest plane's sustained throughput / drop rate / end-to-end latency,
# and the tracer's idle and enabled overhead guards), stamped with build provenance
# (git SHA, compiler + flags, SIMD backend). CI uploads the file as an
# artifact so regressions are visible PR over PR.
#
# After the per-PR file lands, every BENCH_pr*.json present in the repo is
# merged into BENCH_trajectory.json — one document holding the whole perf
# history keyed by PR, with its own provenance stamp — so a reviewer can
# diff throughput across PRs without fishing artifacts out of old runs.
#
# SIMD: if the host CPU advertises AVX2, the build is configured with
# -DSLJ_SIMD=AVX2 (4 f64 lanes instead of SSE2's 2); override by exporting
# SLJ_BENCH_SIMD=OFF|SSE2|AVX2|NEON|AUTO.
#
# Failure contract: if ANY bench binary fails, this script exits non-zero
# and writes NO output file. The JSON is assembled in a temp file and moved
# into place atomically only after every section validated, so a partial or
# truncated BENCH_*.json can never masquerade as a complete run.
#
# Usage: scripts/bench.sh [build-dir] [output.json]
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_pr10.json}"

# Pick the widest backend the host supports unless the caller pinned one.
if [[ -z "${SLJ_BENCH_SIMD:-}" ]]; then
  if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    SLJ_BENCH_SIMD=AVX2
  else
    SLJ_BENCH_SIMD=AUTO
  fi
fi

# Provenance for bench_common.hpp's host_json(); benches run fine without it.
SLJ_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export SLJ_GIT_SHA

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DSLJ_SIMD="$SLJ_BENCH_SIMD"
cmake --build "$BUILD_DIR" -j --target \
  perf_clip_engine perf_stream_engine perf_ingest perf_tracer

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Runs one bench; on failure, reports which one died and aborts the whole
# script (set -e) before any output file exists.
run_bench() {
  local name="$1" json="$2"
  shift 2
  if ! "$BUILD_DIR/$name" --json "$json" "$@"; then
    echo "error: bench '$name' failed; not writing $OUT" >&2
    exit 1
  fi
  # An empty or unterminated JSON section means the bench died mid-write.
  if [[ ! -s "$json" ]] || [[ "$(tail -c 2 "$json" | head -c 1)" != "}" ]]; then
    echo "error: bench '$name' produced incomplete JSON; not writing $OUT" >&2
    exit 1
  fi
  # A complete but malformed section (a stray comma in a hand-written array)
  # must not reach the merged file either.
  if ! python3 -m json.tool "$json" > /dev/null; then
    echo "error: bench '$name' produced invalid JSON; not writing $OUT" >&2
    exit 1
  fi
}

run_bench perf_clip_engine "$WORK/clip.json"
run_bench perf_stream_engine "$WORK/stream.json"
run_bench perf_ingest "$WORK/ingest.json"
run_bench perf_tracer "$WORK/tracer.json"

{
  echo '{'
  echo '  "bench": "pr10-observability",'
  echo '  "clip_engine":'
  sed 's/^/  /' "$WORK/clip.json" | sed '$ s/$/,/'
  echo '  "stream_engine":'
  sed 's/^/  /' "$WORK/stream.json" | sed '$ s/$/,/'
  echo '  "ingest_engine":'
  sed 's/^/  /' "$WORK/ingest.json" | sed '$ s/$/,/'
  echo '  "tracer_overhead":'
  sed 's/^/  /' "$WORK/tracer.json"
  echo '}'
} > "$WORK/combined.json"

mv "$WORK/combined.json" "$OUT"
echo "wrote $OUT"

# ---- trajectory merge -------------------------------------------------------
# Fold every per-PR bench file into one history document. Entries are keyed
# by the pr tag embedded in the filename and ordered numerically (pr4 before
# pr10), and the merge is assembled in the temp dir and moved into place
# atomically — same contract as the per-PR file: no partial output, ever.
TRAJECTORY="BENCH_trajectory.json"
mapfile -t BENCH_FILES < <(ls BENCH_pr*.json 2>/dev/null | sort -V)
if [[ "${#BENCH_FILES[@]}" -gt 0 ]]; then
  {
    echo '{'
    echo '  "trajectory": "conf_icdcsw_HsuYCH08 perf history",'
    echo "  \"generated_at_sha\": \"$SLJ_GIT_SHA\","
    echo "  \"generated_by\": \"scripts/bench.sh\","
    echo "  \"entries\": {"
    last_idx=$(( ${#BENCH_FILES[@]} - 1 ))
    for i in "${!BENCH_FILES[@]}"; do
      f="${BENCH_FILES[$i]}"
      tag="${f#BENCH_}"
      tag="${tag%.json}"
      echo "    \"$tag\":"
      if [[ "$i" -lt "$last_idx" ]]; then
        sed 's/^/    /' "$f" | sed '$ s/$/,/'
      else
        sed 's/^/    /' "$f"
      fi
    done
    echo '  }'
    echo '}'
  } > "$WORK/trajectory.json"
  mv "$WORK/trajectory.json" "$TRAJECTORY"
  echo "wrote $TRAJECTORY (${#BENCH_FILES[@]} entries)"
fi
