#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full gtest suite via ctest,
# once as usual and then three more times in random parallel order.
# Usage: scripts/ci.sh [build-dir] [--sanitize|--tsan|--tsan-stress|--replay|--analyze|--incident] [--simd-off]
#   --sanitize     Debug build with ASan+UBSan (keeps the streaming/worker-pool
#                  concurrency sanitizer-clean).
#   --tsan         Debug build with ThreadSanitizer (pins that per-lane
#                  FrameWorkspace reuse in the engines stays data-race-free).
#   --tsan-stress  TSan build of the ingest plane only, running the
#                  multi-producer ingest stress tests repeatedly — the
#                  dedicated race hunt for FrameQueue/IngestRouter/
#                  IngestService under concurrent producers.
#   --incident     Observability end-to-end lane: builds sljtool, runs the
#                  `top` monitor headless against synthetic producers with a
#                  sub-microsecond p99 budget so the SLO breaches on the
#                  first evaluation, asserts the flight recorder dumped an
#                  incident .sljtrace, and replays every incident bit-for-bit
#                  at 1, 2, and 4 workers. Incident traces, the tracer
#                  timeline, and the final metrics snapshot land in
#                  <build-dir>/incident_artifacts/ for upload.
#   --analyze      Static-analysis lane: library build with the warning
#                  baseline promoted to errors (-Wall -Wextra -Wshadow
#                  -Wconversion -Werror), the slj_lint invariant linter
#                  (AST engine in --strict-engine mode on clang hosts,
#                  lexical with a note elsewhere) with the suppression
#                  ratchet, the negative-compile suite
#                  (tests/test_static_analysis.cmake), the pinned synthetic
#                  corpus suites (test_rng, test_renderer, test_dataset)
#                  under the lane's compiler, and — when
#                  clang/clang-tidy are on PATH — Clang thread-safety
#                  analysis, the clang-static-analyzer baseline diff
#                  (scripts/lint/run_clang_analyzer.py), and the curated
#                  .clang-tidy profile restricted to files changed vs
#                  $SLJ_TIDY_BASE (default origin/main; full tree with
#                  --analyze-full). Findings land in
#                  <build-dir>/analyze_artifacts/ for upload. Clang-only
#                  steps are skipped with a note on clang-less hosts; the
#                  portable steps still gate.
#   --analyze-full clang-tidy over the whole tree instead of the changed
#                  set (the scheduled-job configuration).
#   --simd-off     Configure with -DSLJ_SIMD=OFF (the scalar reference
#                  backend). Composes with any mode above: the SIMD and
#                  scalar paths promise bit-identical output, so every lane
#                  must hold on both. Without it, the build uses SLJ_SIMD's
#                  AUTO default (whatever the compiler already targets).
#   --replay       ASan+UBSan build; runs the replay/format-fuzz suites,
#                  then replays every checked-in golden trace through
#                  `sljtool trace-export` at several worker counts, writing
#                  per-trace tracer timelines (with their per-stage rollup)
#                  to <build-dir>/replay_artifacts/ for upload.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
BUILD_DIR="build"
CMAKE_ARGS=()
MODE="full"
SIMD_OFF=0
TIDY_FULL=0
for arg in "$@"; do
  case "$arg" in
    --sanitize)
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all"
      )
      ;;
    --tsan)
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-sanitize-recover=all"
      )
      ;;
    --tsan-stress)
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-sanitize-recover=all"
      )
      MODE="tsan-stress"
      ;;
    --replay)
      CMAKE_ARGS+=(
        -DCMAKE_BUILD_TYPE=Debug
        "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all"
      )
      MODE="replay"
      ;;
    --analyze)
      MODE="analyze"
      ;;
    --incident)
      MODE="incident"
      ;;
    --analyze-full)
      MODE="analyze"
      TIDY_FULL=1
      ;;
    --simd-off)
      CMAKE_ARGS+=(-DSLJ_SIMD=OFF)
      SIMD_OFF=1
      ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [[ "$MODE" == "analyze" ]]; then
  # 1. Warning baseline as errors, compile database exported. clang++ is
  #    preferred when present so the thread-safety annotations are actually
  #    analyzed rather than compiled away.
  ANALYZE_ARGS=(-DCMAKE_BUILD_TYPE=Release -DSLJ_WERROR=ON
                -DSLJ_BUILD_BENCHES=OFF -DSLJ_BUILD_EXAMPLES=OFF)
  if [[ "$SIMD_OFF" == 1 ]]; then
    ANALYZE_ARGS+=(-DSLJ_SIMD=OFF)
  fi
  if command -v clang++ >/dev/null 2>&1; then
    ANALYZE_ARGS+=(-DCMAKE_CXX_COMPILER=clang++)
    echo "analyze: using clang++ (thread-safety analysis active)"
  else
    echo "analyze: clang++ not found; building with the default compiler" \
         "(thread-safety annotations compile away — see core/annotations.hpp)"
  fi
  cmake -B "$BUILD_DIR" -S . "${ANALYZE_ARGS[@]}"
  cmake --build "$BUILD_DIR" -j --target slj test_rng test_renderer test_dataset

  # The synthetic corpus is pinned to one random stream (synth/rng.hpp) and a
  # digest of its rendered bytes; check that pin under this lane's compiler
  # too, not only under the default one.
  "$BUILD_DIR/test_rng"
  "$BUILD_DIR/test_renderer"
  "$BUILD_DIR/test_dataset"

  ARTIFACTS="$BUILD_DIR/analyze_artifacts"
  mkdir -p "$ARTIFACTS"

  # 2. Repo-specific invariant linter. On clang hosts the AST engine is
  #    mandatory (--strict-engine exits 2 on any lexical fallback, so a
  #    degraded run can never pass silently); elsewhere the lexical engine
  #    is the honest configuration and is named out loud. Both runs carry
  #    the suppression ratchet.
  LINT_ARGS=(--root . --compdb "$BUILD_DIR/compile_commands.json"
             --suppression-baseline scripts/lint/suppressions_baseline.txt)
  if command -v clang++ >/dev/null 2>&1; then
    python3 scripts/lint/slj_lint.py "${LINT_ARGS[@]}" \
      --engine ast --strict-engine 2>&1 | tee "$ARTIFACTS/slj_lint.txt"
  else
    echo "analyze: clang++ not found; slj_lint runs the lexical engine" \
         "(the AST overlay needs clang++ -ast-dump)"
    python3 scripts/lint/slj_lint.py "${LINT_ARGS[@]}" \
      --engine lexical 2>&1 | tee "$ARTIFACTS/slj_lint.txt"
  fi

  # 3. Negative-compile + linter-fixture suite: proves the gates actually
  #    reject violations, not just that clean code passes.
  cmake -DSLJ_BUILD_DIR="$BUILD_DIR" -P tests/test_static_analysis.cmake

  # 4. clang-static-analyzer over the compile database, failing only on
  #    findings absent from scripts/lint/analyzer_baseline.txt.
  if command -v clang++ >/dev/null 2>&1; then
    python3 scripts/lint/run_clang_analyzer.py --root . \
      --compdb "$BUILD_DIR/compile_commands.json" \
      --raw-out "$ARTIFACTS/clang_analyzer.txt"
  else
    echo "analyze: clang++ not found; skipping the clang-static-analyzer lane"
  fi

  # 5. clang-tidy, when available. PR runs cover only files changed vs the
  #    merge base ($SLJ_TIDY_BASE, default origin/main) so turnaround stays
  #    proportional to the diff; the scheduled job passes --analyze-full to
  #    sweep the whole tree.
  if command -v clang-tidy >/dev/null 2>&1; then
    if [[ "$TIDY_FULL" == 1 ]]; then
      mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
      echo "analyze: clang-tidy over the full tree (${#tidy_sources[@]} files)"
    else
      TIDY_BASE="${SLJ_TIDY_BASE:-origin/main}"
      if git rev-parse --verify --quiet "$TIDY_BASE" >/dev/null; then
        mapfile -t tidy_sources < <(
          git diff --name-only --diff-filter=d "$(git merge-base "$TIDY_BASE" HEAD)" \
            -- 'src/*.cpp' | sort)
        echo "analyze: clang-tidy over ${#tidy_sources[@]} file(s) changed" \
             "vs $TIDY_BASE (--analyze-full for the whole tree)"
      else
        echo "analyze: base ref $TIDY_BASE not found; clang-tidy over the full tree"
        mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
      fi
    fi
    if [[ ${#tidy_sources[@]} -gt 0 ]]; then
      clang-tidy -p "$BUILD_DIR" --quiet "${tidy_sources[@]}" \
        2>&1 | tee "$ARTIFACTS/clang_tidy.txt"
    else
      echo "analyze: no changed src/*.cpp files; clang-tidy skipped"
    fi
  else
    echo "analyze: clang-tidy not found; skipping the .clang-tidy profile"
  fi
  echo "analyze: all gates passed (findings in $ARTIFACTS/)"
  exit 0
fi

cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}
if [[ "$MODE" == "replay" ]]; then
  cmake --build "$BUILD_DIR" -j --target \
    test_replay test_clip_io test_image_io sljtool
  # The deserialization fuzz sweeps (truncations, bit flips, oversized
  # length prefixes) run under ASan/UBSan here — "fails cleanly" means no
  # sanitizer report, not just a caught exception.
  "$BUILD_DIR/test_replay"
  "$BUILD_DIR/test_clip_io"
  "$BUILD_DIR/test_image_io"

  # Golden corpus through the CLI at several worker counts; each run must
  # report bit-identical and leaves its tracer timeline as an artifact.
  ARTIFACTS="$BUILD_DIR/replay_artifacts"
  mkdir -p "$ARTIFACTS"
  shopt -s nullglob
  traces=(tests/corpus/*.sljtrace)
  if [[ ${#traces[@]} -eq 0 ]]; then
    echo "error: no traces in tests/corpus/" >&2
    exit 1
  fi
  for trace in "${traces[@]}"; do
    name="$(basename "$trace" .sljtrace)"
    for workers in 1 4; do
      "$BUILD_DIR/sljtool" trace-export --trace "$trace" --workers "$workers" \
        --tolerance 1e-9 \
        --out "$ARTIFACTS/${name}_w${workers}_trace.json"
    done
  done
  echo "replay artifacts in $ARTIFACTS/"
elif [[ "$MODE" == "incident" ]]; then
  cmake --build "$BUILD_DIR" -j --target sljtool

  ARTIFACTS="$BUILD_DIR/incident_artifacts"
  rm -rf "$ARTIFACTS"
  mkdir -p "$ARTIFACTS"

  # A 0.0001 ms p99 budget is unmeetable by construction, so the first SLO
  # evaluation breaches and the monitor dumps a flight-recorder incident.
  # --plain keeps the output log-friendly; the run still gates on its own
  # push/deliver/drop accounting.
  "$BUILD_DIR/sljtool" top --seed 7 --sessions 3 --seconds 2 --fps 60 \
    --workers 2 --policy drop-oldest --capacity 4 \
    --slo-p99 0.0001 --slo-breach-after 1 --plain 1 \
    --incident-dir "$ARTIFACTS" --max-incidents 2 \
    --trace-json "$ARTIFACTS/trace_export.json" \
    | tee "$ARTIFACTS/top.log"

  shopt -s nullglob
  incidents=("$ARTIFACTS"/incident_*.sljtrace)
  if [[ ${#incidents[@]} -eq 0 ]]; then
    echo "error: forced SLO breach produced no incident .sljtrace" >&2
    exit 1
  fi
  echo "incident lane: ${#incidents[@]} incident trace(s) dumped"

  # The acceptance bar for a flight-recorder dump is the same as for a
  # checked-in golden trace: replay must be bit-identical at every worker
  # count, or the incident is not actionable evidence.
  for trace in "${incidents[@]}"; do
    for workers in 1 2 4; do
      "$BUILD_DIR/sljtool" replay --trace "$trace" --workers "$workers"
    done
  done
  echo "incident artifacts in $ARTIFACTS/"
elif [[ "$MODE" == "tsan-stress" ]]; then
  cmake --build "$BUILD_DIR" -j --target test_ingest
  # Repetition is what shakes out rare interleavings: the blocked-producer
  # wakeups, drain-vs-push races, and eviction-vs-push refusals.
  "$BUILD_DIR/test_ingest" \
    --gtest_filter='IngestService.MultiProducerStress*:FrameQueue.*' \
    --gtest_repeat=5
else
  cmake --build "$BUILD_DIR" -j
  cd "$BUILD_DIR" || exit 1
  ctest --output-on-failure -j "$(nproc)"
  # Every gtest case is its own ctest process, so cases that share a file
  # or directory race each other. Random order, eight at a time, three
  # rounds: a suite that only passes serially fails here.
  ctest --output-on-failure -j8 --schedule-random --repeat until-fail:3
fi
