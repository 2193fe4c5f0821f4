#!/usr/bin/env bash
# Full pre-merge check: tier-1 fast gate, then the long-running property
# and stress suites, then a TSan pass over the metrics/trace layer, the
# serving runtime, and the epoch-reclamation/shared-session suites, a
# PTK_METRICS=OFF cross-build proving the instrumentation is inert (same
# selector output, byte-identical CLI stdout), a PTK_SIMD=OFF cross-build
# proving the scalar kernel fallback reproduces the vectorized build byte
# for byte, serving-transcript gates (JSON smoke vs golden; 2-shard and
# no-coalesce runs vs the same golden; the binary wire format decoded back
# to JSON vs the JSON frontend's bytes; a per-session ranking-semantics
# transcript vs its own golden through both wire formats), semantics
# recovery gates (journaled objective replays bit-identically, unknown
# semantics bytes are refused), a crash-recovery gate (SIGKILL a
# persisting server mid-stream, restart with --recover, diff the rest of
# the transcript against an uninterrupted golden run), a benchmark smoke
# run (perfbench clean_opt for 2 s, output check must pass), and an
# ASan/UBSan build running the
# robustness, engine-equivalence, simd kernel, and persistence tests and a
# timed fuzz smoke pass over the committed seed corpus.
# Usage: tools/check.sh [fuzz_seconds]
set -euo pipefail

cd "$(dirname "$0")/.."
FUZZ_SECONDS="${1:-30}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1 fast gate: build + ctest -L tier1 =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS" -L tier1)

echo "== property + stress suites =="
(cd build && ctest --output-on-failure -j "$JOBS" -L 'property|stress')

echo "== TSan: observability + parallel layer + serving runtime + shared sessions =="
cmake -B build-tsan -S . -DPTK_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target obs_test parallel_test serve_test epoch_test \
  shared_sessions_test runtime_test
./build-tsan/tests/obs_test
./build-tsan/tests/parallel_test
./build-tsan/tests/serve_test
# The epoch-reclamation protocol and the 100+-concurrent-session
# bit-identity suite: any missed ordering in the versioned-tree publish /
# pin / retire path shows up here as a TSan race.
./build-tsan/tests/epoch_test
./build-tsan/tests/shared_sessions_test
# The sharded, coalescing runtime: group merging under the shard mutex,
# the metrics drain barrier, and inline shed responses all race-tested.
./build-tsan/tests/runtime_test

echo "== PTK_METRICS=OFF cross-build: instrumentation must be inert =="
cmake -B build-nometrics -S . -DPTK_METRICS=OFF >/dev/null
cmake --build build-nometrics -j "$JOBS" \
  --target selector_test obs_test ptk_cli
./build-nometrics/tests/selector_test
./build-nometrics/tests/obs_test
# Byte-compare CLI stdout between the metrics-on and metrics-off builds
# (and with/without --metrics, which writes only to stderr).
CSV="$(mktemp)"
printf 'oid,value,prob\n0,20,0.2\n0,23,0.8\n1,21,0.2\n1,24,0.8\n2,22,0.6\n2,25,0.4\n' > "$CSV"
./build/tools/ptk_cli select "$CSV" 2 3 --selector opt > /tmp/ptk_on.out
./build/tools/ptk_cli select "$CSV" 2 3 --selector opt --metrics=json \
  > /tmp/ptk_on_flag.out 2>/dev/null
./build-nometrics/tools/ptk_cli select "$CSV" 2 3 --selector opt \
  > /tmp/ptk_off.out
cmp /tmp/ptk_on.out /tmp/ptk_off.out
cmp /tmp/ptk_on.out /tmp/ptk_on_flag.out
rm -f "$CSV"

echo "== PTK_SIMD=OFF cross-build: scalar fallback must be bit-identical =="
cmake -B build-nosimd -S . -DPTK_SIMD=OFF >/dev/null
cmake --build build-nosimd -j "$JOBS" --target simd_test ptk_cli
./build-nosimd/tests/simd_test
# The determinism contract (simd/kernels.h): the vector kernels replay the
# scalar reference's exact IEEE operation sequence, so the two builds'
# CLI stdout must match byte for byte — as must the ON build forced down
# to the scalar level at runtime.
CSV="$(mktemp)"
printf 'oid,value,prob\n0,20,0.2\n0,23,0.8\n1,21,0.2\n1,24,0.8\n2,22,0.6\n2,25,0.4\n' > "$CSV"
./build/tools/ptk_cli topk "$CSV" 2 > /tmp/ptk_simd_on.out
./build-nosimd/tools/ptk_cli topk "$CSV" 2 > /tmp/ptk_simd_off.out
PTK_SIMD_LEVEL=scalar ./build/tools/ptk_cli topk "$CSV" 2 > /tmp/ptk_simd_forced.out
cmp /tmp/ptk_simd_on.out /tmp/ptk_simd_off.out
cmp /tmp/ptk_simd_on.out /tmp/ptk_simd_forced.out
./build/tools/ptk_cli select "$CSV" 2 3 --selector opt > /tmp/ptk_simd_on_sel.out
./build-nosimd/tools/ptk_cli select "$CSV" 2 3 --selector opt > /tmp/ptk_simd_off_sel.out
cmp /tmp/ptk_simd_on_sel.out /tmp/ptk_simd_off_sel.out
rm -f "$CSV"

echo "== serving smoke: JSON-lines transcript vs golden =="
SMOKE_CSV="$(mktemp)"
printf 'oid,value,prob\n0,20,0.2\n0,23,0.8\n1,21,0.2\n1,24,0.8\n2,22,0.6\n2,25,0.4\n' > "$SMOKE_CSV"
# The metrics op is session-less, so it can execute before laned requests
# that were submitted earlier; queue_depth/submitted/executed are therefore
# timing-dependent and normalized before the diff. Everything else in the
# transcript — selector picks, distributions, error responses — is exact.
./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 --metrics \
  < tools/serve_smoke.in 2> /tmp/ptk_serve_metrics.txt \
  | sed -E 's/"queue_depth":[0-9]+/"queue_depth":N/; s/"submitted":[0-9]+/"submitted":N/; s/"executed":[0-9]+/"executed":N/' \
  > /tmp/ptk_serve_smoke.out
diff tools/serve_smoke.golden /tmp/ptk_serve_smoke.out
# --metrics must export every ptk_serve_* family, including the ones this
# clean transcript never increments (shed, deadline misses).
for fam in ptk_serve_sessions_open ptk_serve_sessions_total \
    ptk_serve_session_bytes \
    ptk_serve_queue_depth ptk_serve_inflight ptk_serve_requests_total \
    ptk_serve_shed_total ptk_serve_deadline_miss_total \
    ptk_serve_request_seconds; do
  grep -q "^# TYPE $fam" /tmp/ptk_serve_metrics.txt \
    || { echo "missing metric family: $fam"; exit 1; }
done
NORMALIZE='s/"queue_depth":[0-9]+/"queue_depth":N/; s/"submitted":[0-9]+/"submitted":N/; s/"executed":[0-9]+/"executed":N/'
echo "== sharded smoke: 2 shards and --no-coalesce must replay the golden byte-identically =="
# Session ids come from the runtime-global counter and every session op
# routes to the shard owning its id, so the transcript must not change
# with the deployment shape (only scheduler tallies, normalized above).
./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 --shards 2 \
  < tools/serve_smoke.in 2>/dev/null \
  | sed -E "$NORMALIZE" > /tmp/ptk_serve_shards2.out
diff tools/serve_smoke.golden /tmp/ptk_serve_shards2.out
./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 --no-coalesce \
  < tools/serve_smoke.in 2>/dev/null \
  | sed -E "$NORMALIZE" > /tmp/ptk_serve_nocoalesce.out
diff tools/serve_smoke.golden /tmp/ptk_serve_nocoalesce.out

echo "== semantics smoke: per-session objectives vs golden, both wire formats =="
# One transcript exercising all three ranking objectives (expected_rank,
# ukranks, default entropy) plus an unknown-name refusal. The JSON run
# must match the golden byte for byte, and the same requests through the
# binary frontend (trailer-carried semantics field) must decode back to
# the identical bytes.
./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 \
  < tools/serve_smoke_semantics.in 2>/dev/null \
  > /tmp/ptk_serve_semantics.out
diff tools/serve_smoke_semantics.golden /tmp/ptk_serve_semantics.out
./build/tools/ptk_wire encode-requests < tools/serve_smoke_semantics.in \
  | ./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 \
      --wire binary 2>/dev/null \
  | ./build/tools/ptk_wire decode-responses \
  > /tmp/ptk_serve_semantics_bin.out
diff tools/serve_smoke_semantics.golden /tmp/ptk_serve_semantics_bin.out
# A server-wide default objective shifts the sessions that do not name
# one: the entropy-default quality line must change under --semantics
# expected_rank while the explicitly-named sessions stay put.
./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 \
  --semantics expected_rank \
  < tools/serve_smoke_semantics.in 2>/dev/null \
  > /tmp/ptk_serve_semantics_default.out
head -n 9 tools/serve_smoke_semantics.golden \
  | diff - <(head -n 9 /tmp/ptk_serve_semantics_default.out)
! diff -q tools/serve_smoke_semantics.golden \
    /tmp/ptk_serve_semantics_default.out >/dev/null \
  || { echo "--semantics default had no effect"; exit 1; }

echo "== cross-codec gate: binary frontend must decode to the JSON transcript =="
# Same requests through both wire formats; the binary responses, decoded
# back to JSON by ptk_wire, must equal the JSON frontend's bytes. The
# unknown-op probe line is JSON-only (the binary encoder cannot spell an
# op the enum does not have), so it is filtered from this comparison.
grep -v '"op":"bogus"' tools/serve_smoke.in > /tmp/ptk_wire_smoke.in
./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 \
  < /tmp/ptk_wire_smoke.in 2>/dev/null \
  | sed -E "$NORMALIZE" > /tmp/ptk_wire_json.out
./build/tools/ptk_wire encode-requests < /tmp/ptk_wire_smoke.in \
  | ./build/tools/ptk_server "$SMOKE_CSV" --k 2 --fanout 2 --workers 1 \
      --wire binary 2>/dev/null \
  | ./build/tools/ptk_wire decode-responses \
  | sed -E "$NORMALIZE" > /tmp/ptk_wire_binary.out
diff /tmp/ptk_wire_json.out /tmp/ptk_wire_binary.out
rm -f "$SMOKE_CSV"

echo "== semantics recovery gate: journaled objective replays; unknown bytes refuse =="
# A persisting expected_rank session must survive kill/restart/replay
# bit-identically (the journaled semantics byte overrides the recovering
# manager's default), and a journal naming a semantics byte this build
# cannot map must be refused loudly instead of replayed under a
# substituted objective.
(cd build && ctest --output-on-failure \
  -R 'ExpectedRankKillRestartIsBitIdentical|RecoveryRefusesUnknownSemanticsByte|RecoverReplaysSessionSemantics')

echo "== crash recovery gate: SIGKILL mid-stream, restart --recover, diff vs golden =="
CRASH_CSV="$(mktemp)"
printf 'oid,value,prob\n0,20,0.2\n0,23,0.8\n1,21,0.2\n1,24,0.8\n2,22,0.6\n2,25,0.4\n' > "$CRASH_CSV"
CRASH_DIR="$(mktemp -d)"
PART1='{"op":"create_session","id":"c1"}
{"op":"next_pairs","session":"s1","count":2,"id":"n1"}
{"op":"post_answers","session":"s1","answers":[[0,1]],"id":"a1"}'
PART2='{"op":"post_answers","session":"s1","answers":[[1,2]],"id":"a2"}
{"op":"distribution","session":"s1","id":"d1"}
{"op":"quality","session":"s1","id":"q1"}
{"op":"post_answers","session":"s1","answers":[[1,0]],"id":"a3"}'
SERVE_ARGS=(--k 2 --fanout 2 --workers 1)
# Golden: the whole transcript through one uninterrupted, non-persisting
# process.
printf '%s\n%s\n' "$PART1" "$PART2" \
  | ./build/tools/ptk_server "$CRASH_CSV" "${SERVE_ARGS[@]}" \
  > /tmp/ptk_crash_golden.out
# Crashed run: feed part 1 through a FIFO, wait until all three responses
# are acknowledged (and therefore fsync-durable), then SIGKILL — no
# shutdown path runs.
mkfifo "$CRASH_DIR/in"
./build/tools/ptk_server "$CRASH_CSV" "${SERVE_ARGS[@]}" \
  --persist-dir "$CRASH_DIR/journal" --snapshot-every 2 \
  < "$CRASH_DIR/in" > /tmp/ptk_crash_part1.out &
CRASH_PID=$!
exec 3> "$CRASH_DIR/in"
printf '%s\n' "$PART1" >&3
for _ in $(seq 1 200); do
  [ "$(wc -l < /tmp/ptk_crash_part1.out)" -ge 3 ] && break
  sleep 0.1
done
[ "$(wc -l < /tmp/ptk_crash_part1.out)" -ge 3 ] \
  || { echo "crash gate: server never answered part 1"; exit 1; }
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
exec 3>&-
# Recovery: a fresh process replays the journal and serves the rest of
# the transcript exactly as the uninterrupted run did — including the
# contradictory answer in a3, whose rejection must replay identically.
printf '%s\n' "$PART2" \
  | ./build/tools/ptk_server "$CRASH_CSV" "${SERVE_ARGS[@]}" \
    --persist-dir "$CRASH_DIR/journal" --recover \
  > /tmp/ptk_crash_part2.out 2> /tmp/ptk_crash_recover.err
grep -q 'recovered 1 session' /tmp/ptk_crash_recover.err \
  || { echo "crash gate: --recover did not report the session"; exit 1; }
diff <(head -n 3 /tmp/ptk_crash_golden.out) /tmp/ptk_crash_part1.out
diff <(tail -n 4 /tmp/ptk_crash_golden.out) /tmp/ptk_crash_part2.out
rm -rf "$CRASH_CSV" "$CRASH_DIR"

echo "== benchmark smoke: perfbench clean_opt for 2 s, every response checked =="
# The repository benchmark (BENCHMARK.json, perfbench/README.md) at tiny
# scale: run.py builds its own tree, drives the real ptk_server over its
# pipes and compares every response with a sequential in-process replay.
# It must exit 0 and report "correct": true on its last stdout line.
BENCH_OUT="$(mktemp)"
python3 perfbench/run.py --workload clean_opt --seed 1 --seconds 2 \
  --trace 0 > "$BENCH_OUT"
tail -n 1 "$BENCH_OUT" | grep -q '"correct": true' \
  || { echo "benchmark smoke: output check failed"; exit 1; }
rm -f "$BENCH_OUT"

echo "== ASan/UBSan: robustness + engine equivalence + fuzz smoke (${FUZZ_SECONDS}s/target) =="
cmake -B build-asan -S . \
  -DPTK_SANITIZE=address,undefined -DPTK_FUZZ=ON >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target load_csv_fuzz constraint_fold_fuzz wal_replay_fuzz frame_fuzz \
  robustness_test data_test session_test engine_test simd_test \
  simd_property_test persist_test epoch_test shared_sessions_test \
  codec_test runtime_test semantics_core_test semantics_property_test
# epoch_test's reader hammer turns a premature reclamation into a
# use-after-free; shared_sessions_test's close-all drain turns a node copy
# that never reaches the limbo list into a leak (LeakSanitizer).
(cd build-asan && ./tests/data_test && ./tests/session_test \
  && ./tests/robustness_test && ./tests/engine_test \
  && ./tests/simd_test && ./tests/simd_property_test \
  && ./tests/persist_test && ./tests/epoch_test \
  && ./tests/shared_sessions_test \
  && ./tests/codec_test && ./tests/runtime_test \
  && ./tests/semantics_core_test && ./tests/semantics_property_test)

run_fuzz() {
  local target="$1" corpus="$2"
  if ./build-asan/fuzz/"$target" --help 2>&1 | grep -q libFuzzer; then
    # libFuzzer engine (clang): real fuzzing for the time budget.
    ./build-asan/fuzz/"$target" -max_total_time="$FUZZ_SECONDS" \
      -timeout=10 "$corpus"
  else
    # Standalone driver (gcc): corpus replay + deterministic mutations.
    ./build-asan/fuzz/"$target" "$corpus" --seconds "$FUZZ_SECONDS"
  fi
}

run_fuzz load_csv_fuzz fuzz/corpus/load_csv
run_fuzz constraint_fold_fuzz fuzz/corpus/constraint_fold
run_fuzz wal_replay_fuzz fuzz/corpus/wal_replay
run_fuzz frame_fuzz fuzz/corpus/frame

echo "== all checks passed =="
