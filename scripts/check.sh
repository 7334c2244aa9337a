#!/usr/bin/env bash
# One-command correctness gate: sanitizer Debug build + full ctest run +
# a parallel-solver CLI smoke test.
#
# Usage: scripts/check.sh [--tsan | --faults | --engine | --observability |
#                          --server | --persist | --chaos | --dynamic]
#                         [build-dir]
#
# Default mode configures a Debug build with AddressSanitizer + UBSan
# (-DNSKY_SANITIZE=address), builds everything, runs the whole test suite,
# then smoke-runs the CLI's parallel skyline path. Use before sending any PR
# that touches a solver or the telemetry layer; a clean run means no memory
# errors, no UB, and no behavioral regressions under the entire gtest suite.
#
# --tsan switches to ThreadSanitizer (-DNSKY_SANITIZE=thread) and runs the
# suites that exercise the thread pool (util, core, tools) instead of the
# full matrix -- the right gate for changes to src/util/thread_pool.* or the
# parallel sections of the solvers. Data races in the engine surface here
# even on a single-core host. It also runs the concurrent-serving suites
# (EngineConcurrency, WriterPreferringMutex, the slow-query capture under
# overlapping queries): many queries on one engine, and the serving cell's
# reader/writer lock.
#
# --faults keeps the ASan build but runs the robustness- and persist-labeled
# suites (ctest -L 'robustness|persist': execution context, fault injector,
# IO corpus, interruption, degradation, CLI failure paths, snapshot
# corruption corpus) and then smoke-runs the CLI under NSKY_FAULTS-injected
# failures -- including the persist.* sites -- asserting the documented exit
# codes and the nsky.error.v1 schema. The right gate for changes to the
# hardened runtime (deadlines, cancellation, byte budgets, fault sites).
#
# --engine keeps the ASan build but runs only the engine-labeled suites
# (ctest -L engine: PreparedGraph artifact reuse, pooled workspaces,
# warm-query equivalence, poisoned scratch) and then smoke-runs the CLI's
# --engine/--repeat serving path, asserting warm output equals the cold
# solve. The right gate for changes to core/engine.*, core/prepared_graph.*
# or core/workspace.*.
#
# --observability keeps the ASan build but runs only the
# observability-labeled suites (ctest -L observability: engine stats, flight
# recorder, quantile estimation, Prometheus exporter, metrics-JSON escaping)
# plus the engine suites, then smoke-runs the CLI's introspection surface:
# skyline --engine --stats (both schema documents present), the metrics
# verb, and --metrics-out with a Prometheus-format lint of the output. The
# right gate for changes to util/metrics.*, util/prom_export.*,
# core/engine_stats.*, core/flight_recorder.* or the engine instrumentation.
#
# --server keeps the ASan build but runs only the server-labeled suites
# (ctest -L server: HTTP parser corpus, loopback byte-identity with the CLI,
# shedding/timeouts, concurrent stress) and then smoke-runs `nsky serve`
# over a real loopback socket with plain bash /dev/tcp: skyline body parity
# with the CLI, the nsky.error.v1 404 document, and signal-free shutdown via
# --max-requests. The right gate for changes to src/server/* or the serve
# verb. (--tsan also runs the server suites: the session workers and the
# admission controller are thread-pool code.)
#
# --persist keeps the ASan build but runs only the persist-labeled suites
# (ctest -L persist: save/load round-trip determinism, corruption corpus,
# persist.* fault sites, snapshot CLI verbs, served-from-snapshot parity)
# and then smoke-runs the snapshot lifecycle through the CLI: save -> fsck
# via `snapshot inspect` -> `skyline --snapshot` byte-parity with the cold
# engine -> canonical re-save -> a bit-flipped file failing closed with the
# documented exit code. The right gate for changes to src/persist/* or the
# snapshot verbs. (--tsan also runs the persist suites; ASan covers the
# corruption decoders.)
#
# --chaos keeps the ASan build but runs the chaos- and server-labeled suites
# (ctest -L 'chaos|server': crash-consistent saves, hot reload under
# concurrent load, socket fault sites, client retry policy) and then
# smoke-runs the serving stack with the server.* and persist.* fault sites
# armed through NSKY_FAULTS: a save killed mid-write must leave the old
# snapshot intact plus a partial temp, and a serve under an EINTR storm with
# partial writes must still answer byte-identically to the CLI. The right
# gate for changes to the crash-consistency protocol, the hot-reload path or
# the socket hardening. (--tsan also runs the reload/drain/chaos suites.)
#
# --dynamic keeps the ASan build but runs only the dynamic-labeled suites
# (ctest -L dynamic: versioned graph epochs, incremental artifact repair,
# the Engine::ApplyUpdates oracle matrix, POST /v1/edges drills) and then
# smoke-runs `nsky mutate --verify`: a mixed update batch applied to a warm
# engine must advance the epoch, repair the artifacts, and produce a warm
# result bit-identical to a cold rebuild. The right gate for changes to
# graph/versioned_graph.*, core/dynamic_skyline.*, the repair path in
# core/prepared_graph.* or Engine::ApplyUpdates. (--tsan also runs the
# dynamic suites: mutation and queries race across epochs there.)
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=address
MODE=full
TEST_FILTER=()
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --tsan)
      SANITIZE=thread
      MODE=tsan
      TEST_FILTER=(-R 'util_tests|core_tests|tools_tests|ParallelDeterminism|ThreadPool|ExecutionContext|FaultInjection|Interruption|Degradation|CliRobustness|^Server\.|^Service\.|^HttpParser\.|^Snapshot|^Reload|^Chaos\.|^CrashConsistency|^RetryPolicy|^RetryAfter|^ServeLifecycle|^VersionedGraph|^RepairForUpdates|^MutationOracle|^MutateEndpoint|^MutateStress|EngineConcurrency\.|^WriterPreferringMutex\.|^FlightRecorder\.SlowQuery')
      ;;
    --server)
      MODE=server
      TEST_FILTER=(-L server)
      ;;
    --faults)
      MODE=faults
      TEST_FILTER=(-L 'robustness|persist')
      ;;
    --persist)
      MODE=persist
      TEST_FILTER=(-L persist)
      ;;
    --chaos)
      MODE=chaos
      TEST_FILTER=(-L 'chaos|server')
      ;;
    --engine)
      MODE=engine
      TEST_FILTER=(-L engine)
      ;;
    --dynamic)
      MODE=dynamic
      TEST_FILTER=(-L dynamic)
      ;;
    --observability)
      MODE=observability
      TEST_FILTER=(-L 'observability|engine')
      ;;
    *)
      BUILD_DIR="$arg"
      ;;
  esac
done
if [[ -z "$BUILD_DIR" ]]; then
  BUILD_DIR="build-check"
  [[ "$MODE" == tsan ]] && BUILD_DIR="build-check-tsan"
fi

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DNSKY_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  ${TEST_FILTER[@]+"${TEST_FILTER[@]}"}

NSKY="$BUILD_DIR"/src/tools/nsky

if [[ "$MODE" == faults ]]; then
  # Fault-injected CLI smoke: each armed site must produce its documented
  # exit code, and --json failures must emit the nsky.error.v1 document.
  # `|| code=$?` keeps set -e from killing the script on the expected
  # non-zero exits.

  # Deadline: per-slice delays guarantee a 1ms deadline cannot be met.
  code=0
  OUT="$(NSKY_FAULTS=pool.chunk_delay_ms=5 "$NSKY" skyline \
    --generate ba:5000:3:7 --timeout-ms 1 --json)" || code=$?
  [[ "$code" == 4 ]]
  echo "$OUT" | grep -q '"schema":"nsky.error.v1"'
  echo "$OUT" | grep -q '"code":"DEADLINE_EXCEEDED"'

  # Budget: the ctx.budget site trips the first budgeted check.
  code=0
  NSKY_FAULTS=ctx.budget=1 "$NSKY" skyline --generate ba:2000:3:7 \
    --algo base --max-memory-mb 1024 2>/dev/null >/dev/null || code=$?
  [[ "$code" == 6 ]]

  # IO: a short read surfaces as a load error, strict or not.
  TMP_EDGES="$(mktemp)"
  printf '0 1\n1 2\n2 3\n' > "$TMP_EDGES"
  code=0
  NSKY_FAULTS=io.short_read=2 "$NSKY" stats --input "$TMP_EDGES" \
    2>/dev/null >/dev/null || code=$?
  rm -f "$TMP_EDGES"
  [[ "$code" != 0 ]]

  # Degradation: 2hop under a tight budget completes exactly via
  # filter-refine and records where it degraded from.
  OUT="$("$NSKY" skyline --generate ba:3000:4:7 --algo 2hop \
    --max-memory-mb 1 --json)"
  echo "$OUT" | grep -q '"degraded_from":"2hop"'

  # Persist: the persist.* sites drive save/load failures with the
  # documented IO_ERROR exit (1) and error schema.
  TMP_SNAP="$(mktemp -u)"
  "$NSKY" snapshot save --generate ba:2000:3:7 --output "$TMP_SNAP" >/dev/null
  code=0
  NSKY_FAULTS=persist.short_write=1 "$NSKY" snapshot save \
    --snapshot "$TMP_SNAP" --output "$TMP_SNAP.fail" 2>/dev/null >/dev/null \
    || code=$?
  [[ "$code" == 1 ]]
  code=0
  OUT="$(NSKY_FAULTS=persist.corrupt_section=1 "$NSKY" snapshot load \
    --snapshot "$TMP_SNAP" --json)" || code=$?
  [[ "$code" == 1 ]]
  echo "$OUT" | grep -q '"schema":"nsky.error.v1"'
  echo "$OUT" | grep -q '"code":"IO_ERROR"'
  rm -f "$TMP_SNAP" "$TMP_SNAP.fail"

  echo "check.sh: fault-injection smoke OK (exit codes 4/6, error schema," \
       "2hop degradation, persist.* sites)"
  exit 0
fi

if [[ "$MODE" == persist ]]; then
  # Snapshot lifecycle smoke through the CLI: save a warm engine, fsck it,
  # query from it with byte-parity against a cold engine, re-save it
  # canonically, then corrupt it and watch it fail closed.
  GEN="pl:20000:2.6:10:7"
  TMP_SNAP="$(mktemp -u)"
  "$NSKY" snapshot save --generate "$GEN" --output "$TMP_SNAP" >/dev/null

  # 1. fsck: inspect validates every checksum and reports the layout.
  "$NSKY" snapshot inspect --snapshot "$TMP_SNAP" --json \
    | grep -q '"schema":"nsky.snapshot.v1"'

  # 2. A query served from the snapshot is byte-identical to the cold
  #    engine's (wall time normalized away), for a parallel 2hop run.
  WARM="$("$NSKY" skyline --snapshot "$TMP_SNAP" --algo 2hop --threads 4 --json)"
  COLD="$("$NSKY" skyline --generate "$GEN" --engine --algo 2hop --threads 4 --json)"
  NORM_WARM="$(echo "$WARM" | sed -E 's/"seconds":[0-9.eE+-]+/"seconds":X/g')"
  NORM_COLD="$(echo "$COLD" | sed -E 's/"seconds":[0-9.eE+-]+/"seconds":X/g')"
  [[ "$NORM_WARM" == "$NORM_COLD" ]]

  # 3. Re-saving the loaded snapshot is byte-identical (canonical format).
  "$NSKY" snapshot save --snapshot "$TMP_SNAP" --output "$TMP_SNAP.resave" \
    >/dev/null
  cmp -s "$TMP_SNAP" "$TMP_SNAP.resave"

  # 4. A flipped bit anywhere fails closed with the documented exit code.
  cp "$TMP_SNAP" "$TMP_SNAP.bad"
  printf '\xff' | dd of="$TMP_SNAP.bad" bs=1 seek=$(( $(stat -c %s "$TMP_SNAP.bad") - 7 )) conv=notrunc 2>/dev/null
  code=0
  "$NSKY" snapshot load --snapshot "$TMP_SNAP.bad" 2>/dev/null >/dev/null \
    || code=$?
  [[ "$code" == 1 ]]
  code=0
  "$NSKY" snapshot inspect --snapshot "$TMP_SNAP.bad" 2>/dev/null >/dev/null \
    || code=$?
  [[ "$code" == 1 ]]
  rm -f "$TMP_SNAP" "$TMP_SNAP.resave" "$TMP_SNAP.bad"

  echo "check.sh: persist smoke OK (inspect fsck, snapshot query parity," \
       "canonical re-save, bit-flip fails closed)"
  exit 0
fi

if [[ "$MODE" == chaos ]]; then
  # 1. Crash-consistent save: a save killed mid-write (persist.crash_at_byte)
  #    exits with IO_ERROR, leaves the destination bit-identical to the old
  #    snapshot (inspect still passes) plus the partial temp a real kill -9
  #    would leave behind.
  TMP_SNAP="$(mktemp -u)"
  "$NSKY" snapshot save --generate ba:2000:3:7 --output "$TMP_SNAP" >/dev/null
  SUM_BEFORE="$(cksum < "$TMP_SNAP")"
  code=0
  NSKY_FAULTS=persist.crash_at_byte=128 "$NSKY" snapshot save \
    --generate pl:3000:2.6:8:7 --output "$TMP_SNAP" 2>/dev/null >/dev/null \
    || code=$?
  [[ "$code" == 1 ]]
  [[ "$(cksum < "$TMP_SNAP")" == "$SUM_BEFORE" ]]
  [[ -f "$TMP_SNAP.tmp" ]]
  "$NSKY" snapshot inspect --snapshot "$TMP_SNAP" >/dev/null
  rm -f "$TMP_SNAP" "$TMP_SNAP.tmp"

  # 2. Socket chaos: serve through an EINTR storm with every send capped at
  #    7 bytes; the skyline body must still be byte-identical to the CLI's
  #    and the liveness probe must still answer.
  PORT_FILE="$(mktemp)"
  : > "$PORT_FILE"
  NSKY_FAULTS=server.eintr=8,server.partial_write=7 "$NSKY" serve \
    --generate ba:2000:3:7 --port 0 --port-file "$PORT_FILE" \
    --max-requests 2 >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$PORT_FILE" ]] && break
    sleep 0.1
  done
  [[ -s "$PORT_FILE" ]]
  PORT="$(cat "$PORT_FILE")"

  http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
  }

  SERVED="$(http_get '/v1/skyline' | tr -d '\r' | sed '1,/^$/d')"
  DIRECT="$("$NSKY" skyline --generate ba:2000:3:7 --engine --json)"
  NORM_SERVED="$(echo "$SERVED" | sed -E 's/"seconds":[0-9.eE+-]+/"seconds":X/g')"
  NORM_DIRECT="$(echo "$DIRECT" | sed -E 's/"seconds":[0-9.eE+-]+/"seconds":X/g')"
  [[ "$NORM_SERVED" == "$NORM_DIRECT" ]]
  http_get '/healthz' | grep -q '^ok'
  wait "$SERVER_PID"
  rm -f "$PORT_FILE"

  echo "check.sh: chaos smoke OK (crash-at-byte leaves old snapshot +" \
       "partial temp, serve correct under EINTR storm + partial writes)"
  exit 0
fi

if [[ "$MODE" == dynamic ]]; then
  # 1. Mutate-then-query smoke through the CLI: a small mixed batch against
  #    a warm engine must advance the epoch, repair (not drop) the
  #    artifacts, and --verify must prove the warm result bit-identical to
  #    a cold rebuild on the post-mutation graph.
  TMP_UPDATES="$(mktemp)"
  printf '+ 0 190\n+ 1 191\n- 0 190\n+ 0 190\n' > "$TMP_UPDATES"
  OUT="$("$NSKY" mutate --generate er:200:0.05:7 --updates "$TMP_UPDATES" \
    --threads 2 --verify --json)"
  echo "$OUT" | grep -q '"schema":"nsky.mutate.v1"'
  echo "$OUT" | grep -q '"epoch":1'
  echo "$OUT" | grep -q '"repaired":true'
  echo "$OUT" | grep -q '"verified":true'

  # 2. A malformed update file is a usage error with the documented code.
  printf 'x 1 2\n' > "$TMP_UPDATES"
  code=0
  "$NSKY" mutate --generate er:50:0.1:7 --updates "$TMP_UPDATES" \
    2>/dev/null >/dev/null || code=$?
  [[ "$code" == 2 ]]
  rm -f "$TMP_UPDATES"

  # 3. POST /v1/edges over a real loopback socket: the mutation answers
  #    with the nsky.mutate.v1 document and stamps the new epoch in the
  #    X-Nsky-Epoch header; a second request observes the mutated graph.
  PORT_FILE="$(mktemp)"
  : > "$PORT_FILE"
  "$NSKY" serve --generate er:200:0.05:7 --port 0 --port-file "$PORT_FILE" \
    --max-requests 2 >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$PORT_FILE" ]] && break
    sleep 0.1
  done
  [[ -s "$PORT_FILE" ]]
  PORT="$(cat "$PORT_FILE")"

  BODY='{"updates":[{"op":"insert","u":0,"v":190}]}'
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'POST /v1/edges HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "${#BODY}" "$BODY" >&3
  MUTATED="$(cat <&3)"
  exec 3<&- 3>&-
  echo "$MUTATED" | grep -q '^HTTP/1.1 200 OK'
  echo "$MUTATED" | grep -qi '^X-Nsky-Epoch: 1'
  echo "$MUTATED" | grep -q '"schema":"nsky.mutate.v1"'

  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf 'GET /v1/skyline HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
  SERVED="$(cat <&3)"
  exec 3<&- 3>&-
  echo "$SERVED" | grep -qi '^X-Nsky-Epoch: 1'
  wait "$SERVER_PID"
  rm -f "$PORT_FILE"

  echo "check.sh: dynamic smoke OK (mutate --verify bit-identity, bad" \
       "update file rejected, POST /v1/edges advances the served epoch)"
  exit 0
fi

if [[ "$MODE" == engine ]]; then
  # Serving-path smoke: --repeat routes through core::Engine (first query
  # cold, the rest warm); the warm answer must match the one-shot solve
  # exactly, including the aux_peak_bytes ledger.
  GEN="pl:20000:2.6:10:7"
  COLD="$("$NSKY" skyline --generate "$GEN" --algo 2hop --threads 2 --json)"
  WARM="$("$NSKY" skyline --generate "$GEN" --algo 2hop --threads 2 \
    --engine --repeat 5 --json)"
  echo "$WARM" | grep -q '"engine":true'
  echo "$WARM" | grep -q '"repeat":5'
  # Strip the additive engine keys and the wall-time field; everything else
  # (skyline members, every deterministic stat) must be byte-identical.
  NORM_COLD="$(echo "$COLD" | sed -E 's/"seconds":[0-9.e+-]+//')"
  NORM_WARM="$(echo "$WARM" | sed -E 's/"engine":true,"repeat":5,//; s/"seconds":[0-9.e+-]+//')"
  [[ "$NORM_COLD" == "$NORM_WARM" ]]

  # --engine with --algo join is a contradiction the CLI must reject.
  code=0
  "$NSKY" skyline --generate ba:500:3:7 --algo join --engine \
    2>/dev/null >/dev/null || code=$?
  [[ "$code" == 2 ]]

  echo "check.sh: engine smoke OK (--repeat 5 warm output identical to" \
       "cold solve, join+engine rejected)"
  exit 0
fi

if [[ "$MODE" == server ]]; then
  # Serving smoke over a real loopback socket, dependency-free: bash's
  # /dev/tcp is the client. --max-requests makes the server exit on its own
  # (no signals, works under set -e), --port-file removes the race between
  # "server is up" and "client connects".
  PORT_FILE="$(mktemp)"
  : > "$PORT_FILE"
  "$NSKY" serve --standin notredame --scale small --port 0 \
    --port-file "$PORT_FILE" --max-requests 3 >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$PORT_FILE" ]] && break
    sleep 0.1
  done
  [[ -s "$PORT_FILE" ]]
  PORT="$(cat "$PORT_FILE")"

  http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&- 3>&-
  }

  # 1. The skyline body is the CLI's --engine --json document byte for byte
  #    (wall time normalized away).
  SERVED="$(http_get '/v1/skyline?algo=2hop&threads=2' | tr -d '\r' | sed '1,/^$/d')"
  DIRECT="$("$NSKY" skyline --standin notredame --scale small --algo 2hop \
    --threads 2 --engine --json)"
  NORM_SERVED="$(echo "$SERVED" | sed -E 's/"seconds":[0-9.eE+-]+/"seconds":X/g')"
  NORM_DIRECT="$(echo "$DIRECT" | sed -E 's/"seconds":[0-9.eE+-]+/"seconds":X/g')"
  [[ "$NORM_SERVED" == "$NORM_DIRECT" ]]

  # 2. An unknown route answers 404 with the nsky.error.v1 document.
  MISS="$(http_get '/no/such/route')"
  echo "$MISS" | grep -q '^HTTP/1.1 404 Not Found'
  echo "$MISS" | grep -q '"schema":"nsky.error.v1"'
  echo "$MISS" | grep -q '"code":"NOT_FOUND"'

  # 3. The liveness probe, and the third request retires the server.
  http_get '/healthz' | grep -q '^ok$'
  wait "$SERVER_PID"
  rm -f "$PORT_FILE"

  echo "check.sh: server smoke OK (loopback body identical to CLI --json," \
       "404 error schema, --max-requests shutdown)"
  exit 0
fi

if [[ "$MODE" == observability ]]; then
  GEN="pl:10000:2.6:8:7"

  # skyline --engine --stats must embed both introspection documents, and
  # the repeat loop must show up as exact cache accounting: one cold query
  # then four warm ones.
  OUT="$("$NSKY" skyline --generate "$GEN" --algo filter-refine --threads 2 \
    --engine --repeat 5 --stats --json)"
  echo "$OUT" | grep -q '"schema":"nsky.engine_stats.v1"'
  echo "$OUT" | grep -q '"schema":"nsky.queries.v1"'
  echo "$OUT" | grep -q '"queries_served":5'
  echo "$OUT" | grep -q '"warm_queries":4'
  echo "$OUT" | grep -q '"cold_queries":1'

  # --stats without an engine is a usage error.
  code=0
  "$NSKY" skyline --generate ba:500:3:7 --stats 2>/dev/null >/dev/null || code=$?
  [[ "$code" == 2 ]]

  # The metrics verb emits the registry in both formats.
  "$NSKY" metrics --format json | grep -q '"schema":"nsky.metrics.v1"'
  "$NSKY" metrics --format prom >/dev/null

  # --metrics-out writes Prometheus exposition text; lint the format: every
  # line is a comment or `name{labels} value`, every metric has a # TYPE
  # line, and histogram buckets end with +Inf.
  TMP_METRICS="$(mktemp)"
  "$NSKY" skyline --generate "$GEN" --algo 2hop --engine --repeat 3 \
    --metrics-out "$TMP_METRICS" >/dev/null
  awk '
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
    /^#/ { print "bad comment: " $0; bad = 1; next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*({[^}]*})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ { next }
    { print "bad line: " $0; bad = 1 }
    END { exit bad }
  ' "$TMP_METRICS"
  grep -q '^nsky_engine_queries_served 3$' "$TMP_METRICS"
  grep -q 'le="+Inf"' "$TMP_METRICS"
  rm -f "$TMP_METRICS"

  echo "check.sh: observability smoke OK (engine stats + flight recorder" \
       "schemas, metrics verb, Prometheus lint)"
  exit 0
fi

# Smoke: the full CLI path through the parallel engine, JSON mode. Catches
# wiring regressions (flag parsing, solver dispatch, schema emission) that
# unit tests on RunCli may miss, and races under --tsan.
SMOKE_OUT="$("$NSKY" skyline --generate pl:20000:2.6:10:7 \
  --algo filter-refine --threads 4 --json)"
echo "$SMOKE_OUT" | grep -q '"schema":"nsky.skyline.v1"'
echo "$SMOKE_OUT" | grep -q '"threads":4'
echo "check.sh: CLI smoke OK (--algo filter-refine --threads 4 --json)"
