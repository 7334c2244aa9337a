#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "core/solver_internal.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace nsky::core {

namespace {

// Slow-query capture borrows the process-wide tracer; at most one engine at
// a time may arm it, and never while the caller already has tracing on.
std::atomic<bool> g_slow_trace_busy{false};

uint64_t SlowQueryThresholdFromEnv() {
  const char* env = std::getenv("NSKY_SLOW_QUERY_US");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == nullptr || *end != '\0') return 0;
  return static_cast<uint64_t>(v);
}

}  // namespace

Engine::Engine(Graph g, EngineOptions options)
    : versioned_(std::move(g)),
      options_(options),
      prepared_(&versioned_.Current()),
      slow_query_threshold_us_(SlowQueryThresholdFromEnv()) {}

std::optional<SnapshotInfo> Engine::EffectiveSnapshotInfo() const {
  if (!snapshot_info_.has_value() || versioned_.epoch() == 0) {
    return snapshot_info_;
  }
  SnapshotInfo info = *snapshot_info_;
  info.id += "+dirty@epoch" + std::to_string(versioned_.epoch());
  return info;
}

Engine::Lease::Lease(Engine* engine, unsigned resolved_threads)
    : engine_(engine), threads_(resolved_threads) {
  std::lock_guard<std::mutex> lock(engine_->resources_mu_);
  ResourceList& list = engine_->resources_[threads_];
  if (list.idle.empty()) {
    list.all.push_back(std::make_unique<Resources>(threads_));
    list.idle.push_back(list.all.back().get());
  }
  res_ = list.idle.back();
  list.idle.pop_back();
}

Engine::Lease::~Lease() {
  std::lock_guard<std::mutex> lock(engine_->resources_mu_);
  engine_->resources_[threads_].idle.push_back(res_);
}

util::Status Engine::Execute(const QueryRequest& request,
                             QueryResponse* response) {
  const SolverOptions& options = request.options;
  SkylineResult* result = &response->result;
  const unsigned resolved = internal::ResolveThreads(options.threads);
  Lease res(this, resolved);
  internal::SolveEnv env{&request.context, &res->pool, &res->workspace,
                         &prepared_};

  // Arm the slow-query trace only when nobody else is tracing: the caller's
  // own trace (CLI --trace) must never be clobbered, and at most one query
  // in the process captures at a time. Queries running meanwhile trace
  // into the same collector, so the capture keeps only the roots of this
  // query's threads: the calling thread and its pool's workers.
  const uint64_t slow_threshold_us = slow_query_threshold_us();
  bool trace_armed = false;
  std::vector<uint32_t> own_tracks;  // trace tracks of this query's threads
  if (slow_threshold_us > 0 && !util::trace::Enabled()) {
    bool expected = false;
    if (g_slow_trace_busy.compare_exchange_strong(expected, true)) {
      // One single-item chunk per pool thread: the calling thread runs
      // chunk 0 and worker i chunk i.
      own_tracks.resize(res->pool.num_threads());
      res->pool.ParallelFor(own_tracks.size(),
                            [&](unsigned w, uint64_t, uint64_t) {
                              own_tracks[w] = util::trace::ThisThreadTrack();
                            });
      util::trace::Reset();
      util::trace::SetEnabled(true);
      trace_armed = true;
    }
  }

  const uint64_t builds_before = PreparedGraph::BuildsOnThisThread();
  util::Timer query_timer;
  util::Status status =
      internal::DispatchSolve(versioned_.Current(), options, env, result);
  const uint64_t duration_us = static_cast<uint64_t>(query_timer.Micros());
  const bool warm = PreparedGraph::BuildsOnThisThread() == builds_before;

  queries_served_.fetch_add(1, std::memory_order_relaxed);
  (warm ? warm_queries_ : cold_queries_)
      .fetch_add(1, std::memory_order_relaxed);
  if (status.code() == util::StatusCode::kDeadlineExceeded) {
    timeout_queries_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == util::StatusCode::kCancelled) {
    cancelled_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  // Attribute latency to the algorithm that actually ran: a byte-budget
  // degradation lands on filter-refine, with the requested algorithm kept
  // as degraded_from.
  Algorithm ran = options.algorithm;
  int8_t degraded_from = -1;
  if (!result->stats.degraded_from.empty()) {
    if (std::optional<Algorithm> from =
            ParseAlgorithm(result->stats.degraded_from)) {
      degraded_from = static_cast<int8_t>(*from);
    }
    ran = Algorithm::kFilterRefine;
  }
  latency_us_[static_cast<int>(ran)].Observe(duration_us);

  QueryRecord record;
  record.algorithm = ran;
  record.threads = resolved;
  record.warm = warm;
  record.duration_us = duration_us;
  record.skyline_size = result->skyline.size();
  record.aux_peak_bytes = result->stats.aux_peak_bytes;
  record.status = status.code();
  record.degraded_from = degraded_from;
  record.seq = recorder_.Record(record);

  if (trace_armed) {
    util::trace::SetEnabled(false);
    if (duration_us >= slow_threshold_us) {
      std::vector<util::trace::SpanNode> roots = util::trace::FinishedRoots();
      std::erase_if(roots, [&](const util::trace::SpanNode& root) {
        return std::find(own_tracks.begin(), own_tracks.end(), root.tid) ==
               own_tracks.end();
      });
      recorder_.RecordSlow(record, slow_threshold_us, roots);
    }
    util::trace::Reset();
    g_slow_trace_busy.store(false);
  }

  // Output trimming happens after recording so the flight recorder still
  // sees the true skyline size and aux peak of the run.
  if (!request.include_dominators) {
    result->dominator.clear();
  }
  response->status = status;
  response->warm = warm;
  return response->status;
}

void Engine::RecordRejection(const SolverOptions& options,
                             const util::Status& status) {
  shed_queries_.fetch_add(1, std::memory_order_relaxed);
  QueryRecord record;
  record.algorithm = options.algorithm;
  record.threads = internal::ResolveThreads(options.threads);
  record.warm = false;
  record.duration_us = 0;
  record.skyline_size = 0;
  record.aux_peak_bytes = 0;
  record.status = status.code();
  record.degraded_from = -1;
  record.seq = recorder_.Record(record);
}

std::vector<SkylineResult> Engine::QueryBatch(
    const std::vector<SolverOptions>& batch) {
  std::vector<SkylineResult> results;
  results.reserve(batch.size());
  for (const SolverOptions& options : batch) {
    results.push_back(Query(options));
  }
  return results;
}

const std::vector<VertexId>& Engine::SkylineCache() {
  if (!has_skyline_cache_) {
    skyline_cache_ = Query(options_.defaults).skyline;
    has_skyline_cache_ = true;
  }
  return skyline_cache_;
}

const PreparedGraph::FilterArtifacts& Engine::Filter() {
  Lease res(this, internal::ResolveThreads(options_.defaults.threads));
  return prepared_.Filter(res->pool);
}

void Engine::InvalidateArtifacts() {
  prepared_.Invalidate();
  skyline_cache_.clear();
  has_skyline_cache_ = false;
  dynamic_.reset();
}

void Engine::RefreshFrom(Graph g) {
  // A wholesale replacement: the new epoch-0 Graph is a fresh object, so
  // the prepared view must be repointed before anything rebuilds.
  versioned_.Reset(std::move(g));
  prepared_.Rebind(&versioned_.Current());
  InvalidateArtifacts();
  if (snapshot_info_.has_value()) {
    recorder_.set_origin("snapshot:" + snapshot_info_->id);
  }
}

Engine::MutationResult Engine::ApplyUpdates(
    std::span<const graph::EdgeUpdate> updates) {
  NSKY_TRACE_SPAN("engine.apply_updates");
  MutationResult out;
  ++mutation_batches_;
  for (const graph::EdgeUpdate& e : updates) {
    if (versioned_.Stage(e)) {
      ++out.applied;
    } else {
      ++out.skipped;
    }
  }
  updates_applied_ += out.applied;
  updates_skipped_ += out.skipped;
  if (versioned_.staged_edits() == 0) {
    // The batch cancelled itself out (or was all no-ops): no commit, no
    // epoch transition, nothing stale.
    versioned_.DiscardStaged();
    out.epoch = versioned_.epoch();
    out.repaired = true;
    return out;
  }

  std::shared_ptr<const Graph> old_snap = versioned_.Snapshot();
  const std::vector<graph::EdgeUpdate> net = versioned_.StagedUpdates();
  std::shared_ptr<const Graph> new_snap = versioned_.Commit();
  out.epoch = versioned_.epoch();

  // Maintain the cached default-options skyline incrementally instead of
  // dropping it; DynamicSkyline's cost model decides incremental vs bulk.
  if (has_skyline_cache_) {
    if (dynamic_ == nullptr) {
      dynamic_ = std::make_unique<DynamicSkyline>(*old_snap, skyline_cache_);
    }
    const uint64_t bulk_before = dynamic_->bulk_rebuilds();
    dynamic_->ApplyBatch(net);
    out.bulk_solve = dynamic_->bulk_rebuilds() != bulk_before;
    skyline_cache_ = dynamic_->Skyline();
  }

  const PreparedGraph::RepairOutcome repair =
      prepared_.RepairForUpdates(*old_snap, *new_snap, net);
  out.dirty_vertices = repair.dirty_vertices;
  out.repaired = repair.repaired;
  if (repair.repaired) {
    artifact_repairs_ += repair.patched_artifacts;
  } else {
    ++repair_fallbacks_;
  }
  dirty_last_ = repair.dirty_vertices;
  dirty_total_ += repair.dirty_vertices;

  // Served results now come from a mutated graph; stamp the provenance.
  if (snapshot_info_.has_value()) {
    recorder_.set_origin("snapshot:" + EffectiveSnapshotInfo()->id);
  }
  if (util::metrics::Enabled()) {
    util::metrics::GetCounter("nsky.engine.mutation_batches").Add(1);
  }
  return out;
}

uint64_t Engine::SumWorkspaces(
    uint32_t threads, uint64_t (SolverWorkspace::*ledger)() const) const {
  std::lock_guard<std::mutex> lock(resources_mu_);
  auto it = resources_.find(internal::ResolveThreads(threads));
  if (it == resources_.end()) return 0;
  uint64_t sum = 0;
  for (const auto& res : it->second.all) sum += (res->workspace.*ledger)();
  return sum;
}

uint64_t Engine::WorkspaceAllocationEvents(uint32_t threads) const {
  return SumWorkspaces(threads, &SolverWorkspace::allocation_events);
}

uint64_t Engine::WorkspaceAllocatedBytes(uint32_t threads) const {
  return SumWorkspaces(threads, &SolverWorkspace::allocated_bytes);
}

void Engine::PoisonScratchForTesting() {
  std::lock_guard<std::mutex> lock(resources_mu_);
  for (auto& [threads, list] : resources_) {
    for (auto& res : list.all) res->workspace.PoisonForTesting();
  }
}

EngineStats Engine::StatsSnapshot() const {
  EngineStats s;
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  s.warm_queries = warm_queries_.load(std::memory_order_relaxed);
  s.cold_queries = cold_queries_.load(std::memory_order_relaxed);
  s.timeout_queries = timeout_queries_.load(std::memory_order_relaxed);
  s.cancelled_queries = cancelled_queries_.load(std::memory_order_relaxed);
  s.shed_queries = shed_queries_.load(std::memory_order_relaxed);
  s.artifact_builds = prepared_.builds();
  s.snapshot = EffectiveSnapshotInfo();
  s.epoch = versioned_.epoch();
  if (mutation_batches_ > 0) {
    EngineStats::MutationStats ms;
    ms.epoch = versioned_.epoch();
    ms.batches = mutation_batches_;
    ms.updates_applied = updates_applied_;
    ms.updates_skipped = updates_skipped_;
    ms.artifact_repairs = artifact_repairs_;
    ms.repair_fallbacks = repair_fallbacks_;
    ms.dirty_last = dirty_last_;
    ms.dirty_total = dirty_total_;
    s.mutation = ms;
  }
  s.cache = prepared_.CacheStatsSnapshot();
  {
    // One entry per thread count, summed over its pooled workspaces.
    std::lock_guard<std::mutex> lock(resources_mu_);
    for (const auto& [threads, list] : resources_) {
      EngineStats::WorkspaceStats ws;
      ws.threads = static_cast<uint32_t>(threads);
      for (const auto& res : list.all) {
        ws.allocation_events += res->workspace.allocation_events();
        ws.allocated_bytes += res->workspace.allocated_bytes();
      }
      s.workspaces.push_back(ws);
    }
  }
  for (int i = 0; i < kNumAlgorithms; ++i) {
    if (latency_us_[i].Count() == 0) continue;
    EngineStats::AlgorithmLatency al;
    al.algorithm = AlgorithmName(static_cast<Algorithm>(i));
    al.latency_us = latency_us_[i].Sample();
    s.latency.push_back(std::move(al));
  }
  return s;
}

std::string Engine::StatsJson() const {
  return EngineStatsToJson(StatsSnapshot());
}

std::string Engine::RecentQueriesJson(size_t max) const {
  return recorder_.ToJson(max);
}

}  // namespace nsky::core
