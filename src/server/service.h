// SkylineService: the transport-independent request handler of the nsky
// server.
//
// The service owns the serving core::Engine and maps HTTP requests to
// engine calls; src/server/server.{h,cc} owns sockets and threads and calls
// Handle() from its session workers. Keeping the two apart means every
// route -- including admission control and error rendering -- is testable
// without a socket, and the socket loop never touches JSON.
//
// Endpoints:
//   GET /v1/skyline?algo=&threads=&repeat=&timeout_ms=&max_memory_mb=&stats=1
//       One engine query; the body is the same nsky.skyline.v1 document
//       `nsky skyline --engine --json` prints, byte-for-byte (both render
//       through core/skyline_json.h). `stats=1` embeds the engine's
//       introspection documents like the CLI's --stats. Snapshot-restored
//       engines stamp the response with an `X-Nsky-Snapshot: <id>` header
//       (a header, not a body field, precisely so the body parity with the
//       CLI holds).
//   GET /v1/engine_stats    nsky.engine_stats.v1 snapshot
//   GET /v1/queries?max=N   nsky.queries.v1 flight-recorder dump
//   GET /v1/metrics         Prometheus text: process registry + engine stats
//   GET /healthz            "ok" liveness probe; a service whose engine was
//                           restored from a persistent snapshot appends a
//                           "snapshot <id>" line so probes can vet provenance
//   POST /v1/edges
//       Applies one edge batch to the served graph as a single epoch
//       transition (Engine::ApplyUpdates). Body:
//         {"updates":[{"u":0,"v":1,"op":"insert"|"delete"},...]}
//       Answers nsky.mutate.v1 with applied/skipped counts, the new epoch
//       and the repair outcome. A mutation holds the serving cell's lock
//       exclusively and a query holds it shared, so every query response
//       is computed against exactly one epoch. Responses (here and on
//       /v1/skyline) carry an `X-Nsky-Epoch` header.
//   POST /v1/admin/reload?snapshot=PATH[&timeout_ms=&max_memory_mb=]
//       Zero-downtime hot reload (see below); answers nsky.reload.v1.
//
// Failures answer with the nsky.error.v1 document and the HTTP status from
// the canonical table in util/status.h, so a request that times out inside
// the solver returns 408 exactly where the CLI would exit 4.
//
// Admission control: at most `max_inflight` skyline queries may be admitted
// at once (admitted = waiting for or holding the engine). Requests beyond
// that are shed immediately -- RESOURCE_EXHAUSTED / 429, deterministic, no
// queueing -- and recorded via Engine::RecordRejection so shed traffic is
// visible in /v1/engine_stats and /v1/queries. A draining service (server
// shutting down) answers UNAVAILABLE / 503 instead: the 429 asks the client
// to back off, the 503 tells it to go elsewhere. Both carry a `Retry-After`
// header (ServiceOptions::retry_after_*_s) that HttpClient's retry policy
// honors.
//
// Hot reload: Reload() loads and fully validates a snapshot OFF the request
// path (no lock any query route holds), then epoch-swaps the serving
// engine: the engine plus its reader/writer lock live in one
// shared_ptr'd ServingEngine cell, every request pins the cell for its
// whole lifetime, and the swap just replaces the pointer. In-flight
// queries finish on the engine they started on; requests arriving after
// the swap see the new one; the old engine is destroyed when its last
// pinned request completes. A failed reload (missing/corrupt file, budget,
// future format version) leaves the serving engine untouched and surfaces
// as a structured nsky.error.v1 response. Snapshot provenance (/healthz,
// engine stats, flight-recorder origin) flips atomically with the swap
// because it lives on the engine itself.
//
// Concurrency: Handle() may be called from any number of session workers.
// /v1/skyline, /v1/engine_stats and /v1/metrics hold the serving cell's
// lock shared, so queries run on the engine at the same time
// (core/engine.h); POST /v1/edges holds it exclusively. The lock prefers
// writers: once a mutation waits, new queries queue behind it, so
// saturating readers cannot starve it. /v1/queries reads the flight
// recorder lock-free (it is explicitly safe against concurrent writers).
// Reloads serialize on their own mutex and never block queries except for
// the pointer-sized swap.
#ifndef NSKY_SERVER_SERVICE_H_
#define NSKY_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "graph/graph.h"
#include "server/http.h"
#include "util/execution_context.h"
#include "util/status.h"
#include "util/writer_preferring_mutex.h"

namespace nsky::server {

struct ServiceOptions {
  // Per-request defaults; a request's query parameters override them
  // (timeout_ms= / max_memory_mb=, 0 meaning "unlimited").
  uint64_t default_timeout_ms = 0;   // 0 = no deadline
  uint64_t default_max_memory_mb = 0;  // 0 = no byte budget

  // Skyline queries admitted (waiting or running) before shedding starts.
  uint32_t max_inflight = 4;

  // Retry-After values (whole seconds) attached to backpressure responses:
  // 429 shed means "same replica, brief backoff"; 503 draining means "this
  // replica is going away, wait longer or go elsewhere".
  uint32_t retry_after_shed_s = 1;
  uint32_t retry_after_drain_s = 2;
};

// What the transport writes back: status + content type + body, plus any
// extra headers (Retry-After, X-Nsky-Snapshot). The Connection header stays
// with the transport.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;
};

class SkylineService {
 public:
  SkylineService(graph::Graph g, ServiceOptions options);

  // Serves an engine built elsewhere -- the `nsky serve --snapshot` path
  // hands over the engine persist::Load restored, so the replica answers
  // its first query warm. `engine` must be non-null.
  SkylineService(std::unique_ptr<core::Engine> engine, ServiceOptions options);

  // Thread-safe; see the concurrency notes above.
  HttpResponse Handle(const HttpRequest& request);

  // Zero-downtime hot reload: loads `path` under `ctx` off the request
  // path, and on success swaps it in as the serving engine (old engine
  // drains; see header comment) and returns the new engine's provenance.
  // On failure the serving engine is untouched. Thread-safe; concurrent
  // reloads serialize. Shared by POST /v1/admin/reload and the CLI's
  // --watch-snapshot poller.
  util::Result<core::SnapshotInfo> Reload(
      const std::string& path, const util::ExecutionContext& ctx = {});

  // Lifecycle accounting for `serve --fallback-cold-build`: the CLI records
  // that a snapshot failed to load at startup and the replica cold-built
  // from the graph source instead. Surfaced in the engine-stats lifecycle
  // block.
  void RecordColdFallback() {
    cold_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }
  uint64_t reload_failures() const {
    return reload_failures_.load(std::memory_order_relaxed);
  }

  // The nsky.error.v1 document (plus trailing newline) for a failure, as a
  // ready-to-send response. Shared with the transport so parse errors and
  // slow-client timeouts use the same body shape as route errors.
  static HttpResponse ErrorResponse(const util::Status& status);
  // Same body, but served under an explicit HTTP status (405, 413, ...)
  // that has no StatusCode of its own.
  static HttpResponse ErrorResponseWithHttpStatus(int http_status,
                                                  const util::Status& status);

  // Flipped by the server when it begins shutting down; skyline queries are
  // then refused with UNAVAILABLE/503.
  void set_draining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }

  // The engine currently serving. NOTE: the reference is only stable while
  // no Reload() runs; in-process tests and setup code use this, request
  // handling pins the serving cell instead.
  core::Engine& engine() { return *Serving()->engine; }
  uint32_t max_inflight() const { return options_.max_inflight; }
  // Currently admitted skyline queries (tests poll this to time overload).
  uint32_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  // One serving epoch: the engine and the lock that splits its calls into
  // shared (queries, stats) and exclusive (mutation) ones. Requests copy
  // the shared_ptr once and use only the cell for their whole lifetime, so
  // a concurrent swap can never pull the engine out from under them.
  struct ServingEngine {
    explicit ServingEngine(std::unique_ptr<core::Engine> e)
        : engine(std::move(e)) {}
    std::unique_ptr<core::Engine> engine;
    util::WriterPreferringMutex mu;
  };

  std::shared_ptr<ServingEngine> Serving() const;

  HttpResponse HandleSkyline(const HttpRequest& request);
  HttpResponse HandleMutate(const HttpRequest& request);
  HttpResponse HandleEngineStats();
  HttpResponse HandleQueries(const HttpRequest& request);
  HttpResponse HandleMetrics();
  HttpResponse HandleReload(const HttpRequest& request);

  // Copies the lifecycle counters into a stats snapshot when any reload /
  // fallback activity happened (absent otherwise, keeping pre-reload
  // documents byte-stable).
  void StampLifecycle(core::EngineStats* stats) const;

  ServiceOptions options_;
  mutable std::mutex swap_mu_;  // guards the serving_ pointer itself
  std::shared_ptr<ServingEngine> serving_;
  std::mutex reload_mu_;  // serializes Reload() bodies
  std::atomic<uint32_t> inflight_{0};
  std::atomic<bool> draining_{false};
  // Serving-lifecycle counters; service-scoped so they survive engine
  // swaps.
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> reload_failures_{0};
  std::atomic<uint64_t> cold_fallbacks_{0};
};

}  // namespace nsky::server

#endif  // NSKY_SERVER_SERVICE_H_
