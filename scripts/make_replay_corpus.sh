#!/usr/bin/env bash
# Regenerates the golden replay corpus under tests/corpus/.
#
# The corpus is one trace: a deterministic 3-session ingest run recorded by
# `sljtool record` (manual clock, inline drains — see cmd_record) with three
# pushes per round into 2-deep queues, so drop-oldest sheds frames, on the
# tiny noise-free studio camera so the file stays small enough to commit.
# `sljtool record` self-checks that the trace replays bit-identically before
# this script succeeds; test_replay and `scripts/ci.sh --replay` then replay
# the corpus as a regression test.
#
# Only rerun this into tests/corpus when the trace format version bumps or
# the recorded scenario deliberately changes — that rewrites the golden
# files. Into any other directory it is a reproducibility check: the
# `corpus_reproduces` ctest regenerates the corpus under build/smoke/corpus
# and compares every file byte for byte with tests/corpus.
#
# Usage: scripts/make_replay_corpus.sh [path/to/sljtool] [output-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SLJTOOL="${1:-$ROOT/build/sljtool}"
CORPUS="${2:-$ROOT/tests/corpus}"

if [[ ! -x "$SLJTOOL" ]]; then
  echo "error: sljtool not found at $SLJTOOL (build first, or pass its path)" >&2
  exit 1
fi

mkdir -p "$CORPUS"

"$SLJTOOL" record --out "$CORPUS/drop_oldest.sljtrace" \
  --mini 1 --sessions 3 --frames 12 --fps 60 --capacity 2 --seed 2008 --pushes-per-round 3

ls -la "$CORPUS"/*.sljtrace
