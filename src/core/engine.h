// core::Engine: the serving entry point for repeated skyline queries.
//
//   nsky::core::Engine engine(std::move(g));
//   nsky::core::QueryResponse response;
//   engine.Execute({.options = options}, &response);         // cold: builds
//   engine.Execute({.options = options}, &response);         // warm: cached
//
// An Engine owns a graph, a PreparedGraph artifact cache built from it, and
// a free list of {ThreadPool, SolverWorkspace} pairs per resolved thread
// count. Execute() is the single query surface (core/query.h): every input
// -- options, limits, output mode -- arrives in a QueryRequest, every
// output -- result, status, warmth -- leaves in a QueryResponse, and the
// historical Query / QueryOrError / QueryInto / QueryBatch entry points are
// thin inline wrappers over it. Execute() routes through the same dispatch
// body as Solve(), so every result -- skyline order, dominator array, every
// deterministic SkylineStats counter including aux_peak_bytes -- is
// bit-identical to a cold Solve() call with the same options at any thread
// count. What changes is the cost profile: graph-derived artifacts (filter
// candidates, blooms, 2-hop lists) are computed once and shared across
// queries, and per-query scratch comes from a pooled workspace, so a warm
// query of a previously-seen shape performs no heap allocation in the
// solver hot path (Execute into a reused response extends that to the
// outputs; the workspace allocation ledger verifies it in tests).
//
// Semantics that differ from cold Solve(), by design:
//  * Artifact builds run under an unlimited context (shared state must not
//    be left half-built by one query's deadline), so a warm query can
//    succeed where the equivalent cold run would have been cancelled
//    mid-build. Per-query deadlines/budgets still apply at every solver
//    phase boundary and between parallel slices.
//  * ThreadPool workers live across queries instead of being spawned and
//    joined per call.
//
// Concurrency: Execute() and the observation calls (StatsSnapshot,
// StatsJson, RecentQueriesJson, RecordRejection, the const accessors) may
// run on any number of threads at once. Each query checks a {ThreadPool,
// SolverWorkspace} pair out of its thread count's LIFO free list (a lone
// caller keeps reusing one warm pair; the list grows to the peak number of
// concurrent queries), lazy artifact builds are serialized inside
// PreparedGraph, and the serving counters are relaxed atomics.
// ApplyUpdates(), RefreshFrom(), InvalidateArtifacts(), SkylineCache(),
// Filter(), set_snapshot_info() and PoisonScratchForTesting() change what
// queries read, so each must be exclusive with every other call; the server
// (src/server/service.h) enforces this split with a reader/writer lock.
#ifndef NSKY_CORE_ENGINE_H_
#define NSKY_CORE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <atomic>
#include <utility>

#include "core/dynamic_skyline.h"
#include "core/engine_stats.h"
#include "core/flight_recorder.h"
#include "core/prepared_graph.h"
#include "core/query.h"
#include "core/solver.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "graph/versioned_graph.h"
#include "util/execution_context.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nsky::core {

struct EngineOptions {
  // Options used by Query() / SkylineCache() when the caller passes none.
  SolverOptions defaults;
};

class Engine {
 public:
  // Takes ownership of the graph; artifacts build lazily on first use.
  explicit Engine(Graph g, EngineOptions options = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The current epoch's graph. The reference is stable until the next
  // ApplyUpdates() commit or RefreshFrom(); in-flight readers that must
  // survive either pin graph_snapshot() instead.
  const Graph& graph() const { return versioned_.Current(); }
  std::shared_ptr<const Graph> graph_snapshot() const {
    return versioned_.Snapshot();
  }

  // Epochs committed by ApplyUpdates since construction / last RefreshFrom.
  uint64_t epoch() const { return versioned_.epoch(); }

  const EngineOptions& options() const { return options_; }
  PreparedGraph& prepared() { return prepared_; }
  const PreparedGraph& prepared() const { return prepared_; }

  // Snapshot provenance (src/persist/). Load() stamps the engine it
  // restores; cold-built engines have no snapshot info. Surfaced through
  // StatsSnapshot(), the flight recorder origin and the server's /healthz.
  void set_snapshot_info(SnapshotInfo info) {
    snapshot_info_ = std::move(info);
    recorder_.set_origin("snapshot:" + snapshot_info_->id);
  }
  const std::optional<SnapshotInfo>& snapshot_info() const {
    return snapshot_info_;
  }

  // snapshot_info() with mutation provenance: once ApplyUpdates has
  // committed an epoch the served graph no longer matches the snapshot
  // file, so the id gains a "+dirty@epoch<N>" suffix. What StatsSnapshot(),
  // /healthz and the X-Nsky-Snapshot header report.
  std::optional<SnapshotInfo> EffectiveSnapshotInfo() const;

  // The single query surface (core/query.h): fills *response with the
  // result, status and warmth of one query run under the request's options
  // and limits. A query interrupted by its context leaves the engine fully
  // serviceable: the next query re-initializes all scratch it reads. The
  // response's buffers are recycled (capacity kept, contents replaced), so
  // a serving loop that reuses one response stays allocation-free once
  // warm. Returns response->status for call-site convenience.
  util::Status Execute(const QueryRequest& request, QueryResponse* response);
  QueryResponse Execute(const QueryRequest& request) {
    QueryResponse response;
    Execute(request, &response);
    return response;
  }

  // Historical wrappers, all thin shims over Execute().
  //
  // Unlimited-context queries; infallible like Solve().
  SkylineResult Query() { return Query(options_.defaults); }
  SkylineResult Query(const SolverOptions& options) {
    QueryResponse response;
    Execute(QueryRequest{options, util::ExecutionContext::Unlimited(), true},
            &response);
    NSKY_CHECK_MSG(response.status.ok(),
                   "Query with an unlimited context cannot fail");
    return std::move(response.result);
  }

  // Context-honoring queries, mirroring SolveOrError / SolveInto.
  util::Result<SkylineResult> QueryOrError(
      const SolverOptions& options, const util::ExecutionContext& ctx = {}) {
    QueryResponse response;
    Execute(QueryRequest{options, ctx, true}, &response);
    if (!response.status.ok()) return response.status;
    return std::move(response.result);
  }
  util::Status QueryInto(const SolverOptions& options,
                         const util::ExecutionContext& ctx,
                         SkylineResult* result) {
    // Donate the caller's buffers to the response so a reused result keeps
    // its steady-state capacity through the round trip.
    QueryResponse response;
    response.result = std::move(*result);
    Execute(QueryRequest{options, ctx, true}, &response);
    *result = std::move(response.result);
    return response.status;
  }

  // Runs the batch serially in order against the shared artifacts; entry i
  // equals Query(batch[i]).
  std::vector<SkylineResult> QueryBatch(
      const std::vector<SolverOptions>& batch);

  // Admission-control hook for serving front ends: accounts for a request
  // that was rejected before reaching Execute() (load shedding, draining).
  // Bumps the shed counter and files a flight-recorder entry carrying the
  // rejection status, so shed traffic shows up in StatsSnapshot() and the
  // nsky.queries.v1 document alongside served queries. Safe to call
  // concurrently with running queries -- rejection is precisely the moment
  // the engine is busy.
  void RecordRejection(const SolverOptions& options,
                       const util::Status& status);

  // The skyline under the engine's default options, computed on first call
  // and cached. The shared pool the clique / centrality / setjoin
  // consumers read instead of privately re-solving.
  const std::vector<VertexId>& SkylineCache();

  // The cached filter-phase artifacts (candidates, O(*) array, membership
  // map), built on first use with the default thread count's pool. The
  // setjoin baseline seeds its query set from these.
  const PreparedGraph::FilterArtifacts& Filter();

  // Drops the PreparedGraph artifacts and the skyline cache; the graph is
  // unchanged. Next query rebuilds.
  void InvalidateArtifacts();

  // Replaces the graph wholesale (a different dataset, not an edit of this
  // one) and invalidates everything derived from the old graph. Rewinds
  // the epoch to 0; for in-place edits ApplyUpdates is strictly better.
  void RefreshFrom(Graph g);

  // --- Mutation (the tentpole of the dynamic-serving path) ----------------

  // Outcome of one ApplyUpdates batch, echoed by the nsky.mutate.v1
  // document.
  struct MutationResult {
    size_t applied = 0;        // updates that changed the staged view
    size_t skipped = 0;        // self loops / out-of-range / no-ops
    uint64_t epoch = 0;        // epoch after the call
    uint64_t dirty_vertices = 0;  // |D| the artifact repair re-verified
    bool repaired = false;     // artifacts patched in place (vs dropped)
    bool bulk_solve = false;   // skyline maintenance chose a full re-solve
  };

  // Applies one edge batch as a single epoch transition: stages every
  // update against the versioned graph, commits the net batch into the
  // next immutable CSR epoch, maintains the cached skyline through
  // DynamicSkyline (incremental or bulk, by its cost model) and locally
  // repairs the PreparedGraph artifacts (PreparedGraph::RepairForUpdates).
  // A batch whose net effect is empty commits nothing and keeps the epoch.
  // After the call, warm queries are bit-identical -- including
  // aux_peak_bytes -- to a cold-built engine on the post-mutation graph.
  // Readers holding graph_snapshot() keep the pre-commit epoch. Must be
  // exclusive with every query (see Concurrency above).
  MutationResult ApplyUpdates(std::span<const graph::EdgeUpdate> updates);

  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t shed_queries() const {
    return shed_queries_.load(std::memory_order_relaxed);
  }

  // --- Observability -----------------------------------------------------
  //
  // Everything below is observation-only: no solver reads any of it, and
  // with instrumentation fully enabled every query result (including
  // aux_peak_bytes) stays bit-identical to the uninstrumented path (pinned
  // by the equivalence suite).

  // Point-in-time copy of this engine's serving counters: cache hit/miss
  // ledger per artifact, workspace high-water marks, per-algorithm latency
  // distributions, warm/cold split. Latency histograms observe the
  // algorithm that actually RAN (a degraded 2hop query counts under
  // filter-refine, with the degradation visible in the flight recorder).
  EngineStats StatsSnapshot() const;

  // EngineStatsToJson(StatsSnapshot()): the nsky.engine_stats.v1 document.
  std::string StatsJson() const;

  // recorder().ToJson(max): the nsky.queries.v1 document.
  std::string RecentQueriesJson(
      size_t max = FlightRecorder::kDefaultCapacity) const;

  // Ring of the most recent queries (always on; recording is a handful of
  // relaxed stores). Safe to read concurrently with a running query.
  const FlightRecorder& recorder() const { return recorder_; }

  // Slow-query hook: when a query's dispatch takes at least this many
  // microseconds, its full phase trace is captured into the recorder's slow
  // log. Parsed from $NSKY_SLOW_QUERY_US at construction (0 = off); the
  // setter exists so tests need not mutate the environment. Capture borrows
  // the global tracer, so it stays off while the caller is already tracing.
  void set_slow_query_threshold_us(uint64_t us) {
    slow_query_threshold_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t slow_query_threshold_us() const {
    return slow_query_threshold_us_.load(std::memory_order_relaxed);
  }

  // Workspace allocation ledger summed over the pooled workspaces serving
  // `threads` (resolved as in SolverOptions). Tests assert these stay flat
  // across warm queries.
  uint64_t WorkspaceAllocationEvents(uint32_t threads) const;
  uint64_t WorkspaceAllocatedBytes(uint32_t threads) const;

  // Fills every pooled workspace with garbage; see
  // SolverWorkspace::PoisonForTesting.
  void PoisonScratchForTesting();

 private:
  static constexpr int kNumAlgorithms = 4;  // Algorithm enum arity

  struct Resources {
    explicit Resources(unsigned threads) : pool(threads) {}
    util::ThreadPool pool;
    SolverWorkspace workspace;
  };
  // Every pair built for one thread count, and the idle ones (LIFO).
  struct ResourceList {
    std::vector<std::unique_ptr<Resources>> all;
    std::vector<Resources*> idle;
  };
  // A pair checked out for one query; back on the free list at scope exit.
  class Lease {
   public:
    Lease(Engine* engine, unsigned resolved_threads);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Resources* operator->() const { return res_; }

   private:
    Engine* engine_;
    unsigned threads_;
    Resources* res_;
  };

  // Sum of `ledger` over every pooled workspace serving `threads`.
  uint64_t SumWorkspaces(uint32_t threads,
                         uint64_t (SolverWorkspace::*ledger)() const) const;

  graph::VersionedGraph versioned_;
  EngineOptions options_;
  PreparedGraph prepared_;
  mutable std::mutex resources_mu_;  // guards resources_
  std::map<unsigned, ResourceList> resources_;
  std::vector<VertexId> skyline_cache_;
  bool has_skyline_cache_ = false;
  // Maintains skyline_cache_ across ApplyUpdates batches; created lazily on
  // the first mutation that finds a cached skyline, dropped whenever the
  // cache is (InvalidateArtifacts / RefreshFrom).
  std::unique_ptr<DynamicSkyline> dynamic_;
  // Mutation telemetry (EngineStats::MutationStats).
  uint64_t mutation_batches_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t updates_skipped_ = 0;
  uint64_t artifact_repairs_ = 0;
  uint64_t repair_fallbacks_ = 0;
  uint64_t dirty_last_ = 0;
  uint64_t dirty_total_ = 0;
  std::optional<SnapshotInfo> snapshot_info_;
  // Serving counters: relaxed atomics, bumped by concurrent queries.
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> warm_queries_{0};
  std::atomic<uint64_t> cold_queries_{0};
  std::atomic<uint64_t> timeout_queries_{0};
  std::atomic<uint64_t> cancelled_queries_{0};
  std::atomic<uint64_t> shed_queries_{0};
  std::atomic<uint64_t> slow_query_threshold_us_{0};
  FlightRecorder recorder_;
  // Indexed by Algorithm; named with the stable CLI algorithm names. These
  // are engine-scoped (not in the global registry), but the global
  // metrics::SetEnabled() switch still gates Observe().
  util::metrics::Histogram latency_us_[kNumAlgorithms] = {
      util::metrics::Histogram("filter-refine"),
      util::metrics::Histogram("base"),
      util::metrics::Histogram("cset"),
      util::metrics::Histogram("2hop")};
};

}  // namespace nsky::core

#endif  // NSKY_CORE_ENGINE_H_
