#include "core/prepared_graph.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/solver_internal.h"
#include "core/subset_check.h"
#include "core/workspace.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace nsky::core {

namespace {

thread_local uint64_t t_builds = 0;

void CountBuild(const char* artifact) {
  ++t_builds;
  if (util::metrics::Enabled()) {
    util::metrics::GetCounter("nsky.prepared.builds").Add(1);
    util::metrics::GetCounter(std::string("nsky.prepared.build.") + artifact)
        .Add(1);
  }
}

// One vertex's share of the filter phase on `g`: its edge-constrained
// dominator plus the deterministic counters its inner loop contributes to
// the phase totals. Must mirror RunFilterPhase's per-vertex loop exactly --
// the repair path subtracts the old-graph share and adds the new-graph
// share, so any divergence breaks warm/cold bit-identity.
struct FilterContribution {
  VertexId dominator = 0;
  uint64_t pairs_examined = 0;
  uint64_t degree_prunes = 0;
  uint64_t inclusion_tests = 0;
  uint64_t nbr_elements_scanned = 0;
};

FilterContribution FilterContributionOf(const Graph& g, VertexId u) {
  FilterContribution c;
  c.dominator = u;
  const uint32_t deg_u = g.Degree(u);
  for (VertexId v : g.Neighbors(u)) {
    ++c.pairs_examined;
    const uint32_t deg_v = g.Degree(v);
    if (deg_v < deg_u) {
      ++c.degree_prunes;
      continue;
    }
    if (deg_v == deg_u && v > u) continue;
    ++c.inclusion_tests;
    if (!SortedSubsetExcept(g.Neighbors(u), g.Neighbors(v), v,
                            &c.nbr_elements_scanned)) {
      continue;
    }
    c.dominator = v;
    break;
  }
  return c;
}

// Reusable seen-marker for 2-hop collection: vertices are deduplicated at
// collection time by stamping, so the sort afterwards runs on the unique
// survivors only. On hub-heavy rows the pre-dedup volume is an order of
// magnitude larger than the unique list; sorting only survivors is the
// difference between a local repair and a hidden rebuild. Stamps are
// generation-counted so the O(n) clear is paid once per scratch lifetime,
// not per vertex.
class TwoHopScratch {
 public:
  explicit TwoHopScratch(VertexId n) : stamp_(n, 0) {}

  // `u`'s deduplicated sorted 2-hop list (neighbors plus
  // neighbors-of-neighbors except u) -- byte-identical to the historical
  // sort+unique over the raw volume.
  std::vector<VertexId> ListOf(const Graph& g, VertexId u) {
    if (++generation_ == 0) {  // counter wrapped; re-zero the stamps
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    std::vector<VertexId> out;
    for (VertexId v : g.Neighbors(u)) {
      if (stamp_[v] != generation_) {
        stamp_[v] = generation_;
        out.push_back(v);
      }
      for (VertexId w : g.Neighbors(v)) {
        if (w != u && stamp_[w] != generation_) {
          stamp_[w] = generation_;
          out.push_back(w);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
};

}  // namespace

const PreparedGraph::FilterArtifacts& PreparedGraph::Filter(
    util::ThreadPool& pool) {
  std::lock_guard<std::mutex> lock(mu_);
  if (filter_.has_value()) {
    ++cache_stats_.filter.hits;
    return *filter_;
  }
  NSKY_TRACE_SPAN("prepared.filter_build");
  CountBuild("filter");
  ++builds_;
  ++cache_stats_.filter.misses;
  util::Timer build_timer;

  // Built with the exact cold-path code (internal::RunFilterPhase) under an
  // unlimited context, so the cached counters / candidate_count /
  // aux_peak_bytes are the ones any cold run would have produced.
  const util::ExecutionContext ctx;
  SolverWorkspace workspace;
  internal::SolveEnv env{&ctx, &pool, &workspace, nullptr};
  SkylineResult result;
  util::Status status =
      internal::RunFilterPhase(*g_, SolverOptions{}, env, &result);
  NSKY_CHECK_MSG(status.ok(), "unlimited filter-phase build cannot fail");

  FilterArtifacts fa;
  fa.candidates = std::move(result.skyline);
  fa.dominator = std::move(result.dominator);
  fa.stats = result.stats;
  fa.member.assign(g_->NumVertices(), 0);
  for (VertexId u : fa.candidates) fa.member[u] = 1;
  filter_ = std::move(fa);
  cache_stats_.filter.build_us += static_cast<uint64_t>(build_timer.Micros());
  return *filter_;
}

const NeighborhoodBlooms& PreparedGraph::CandidateBlooms(
    uint32_t bits, util::ThreadPool& pool) {
  // Membership map first; Filter() takes the same mutex.
  const std::vector<uint8_t>& member = Filter(pool).member;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = candidate_blooms_.find(bits);
  if (it != candidate_blooms_.end()) {
    ++cache_stats_.candidate_blooms[bits].hits;
    return *it->second;
  }
  NSKY_TRACE_SPAN("prepared.bloom_build");
  CountBuild("candidate_blooms");
  ++builds_;
  ++cache_stats_.candidate_blooms[bits].misses;
  util::Timer build_timer;
  auto blooms = std::make_unique<NeighborhoodBlooms>(*g_, member, bits, &pool);
  cache_stats_.candidate_blooms[bits].build_us +=
      static_cast<uint64_t>(build_timer.Micros());
  return *candidate_blooms_.emplace(bits, std::move(blooms)).first->second;
}

const NeighborhoodBlooms& PreparedGraph::FullBlooms(uint32_t bits,
                                                    util::ThreadPool& pool) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = full_blooms_.find(bits);
  if (it != full_blooms_.end()) {
    ++cache_stats_.full_blooms[bits].hits;
    return *it->second;
  }
  NSKY_TRACE_SPAN("prepared.bloom_build");
  CountBuild("full_blooms");
  ++builds_;
  ++cache_stats_.full_blooms[bits].misses;
  util::Timer build_timer;
  std::vector<uint8_t> member(g_->NumVertices(), 1);
  auto blooms = std::make_unique<NeighborhoodBlooms>(*g_, member, bits, &pool);
  cache_stats_.full_blooms[bits].build_us +=
      static_cast<uint64_t>(build_timer.Micros());
  return *full_blooms_.emplace(bits, std::move(blooms)).first->second;
}

const PreparedGraph::TwoHopArtifacts& PreparedGraph::TwoHop(
    util::ThreadPool& pool) {
  std::lock_guard<std::mutex> lock(mu_);
  if (two_hop_.has_value()) {
    ++cache_stats_.two_hop.hits;
    return *two_hop_;
  }
  NSKY_TRACE_SPAN("prepared.two_hop_build");
  CountBuild("two_hop");
  ++builds_;
  ++cache_stats_.two_hop.misses;
  util::Timer build_timer;

  // The same deterministic materialization RunBase2Hop performs cold: slot
  // u is written only by the worker owning u, and the recorded charge is
  // the per-worker logical byte sum merged in worker order plus the outer
  // array -- the exact value a cold run adds to its ledger.
  const Graph& g = *g_;
  const VertexId n = g.NumVertices();
  TwoHopArtifacts art;
  art.lists.resize(n);
  std::vector<uint64_t> bytes_per_worker(pool.num_threads(), 0);
  const util::ExecutionContext ctx;
  util::Status scan = pool.ParallelFor(
      n, ctx, [&](unsigned worker, uint64_t begin, uint64_t end) {
        TwoHopScratch scratch(n);
        for (VertexId u = static_cast<VertexId>(begin); u < end; ++u) {
          art.lists[u] = scratch.ListOf(g, u);
          bytes_per_worker[worker] += art.lists[u].size() * sizeof(VertexId);
        }
      });
  NSKY_CHECK_MSG(scan.ok(), "unlimited 2-hop build cannot fail");
  for (uint64_t bytes : bytes_per_worker) art.charged_bytes += bytes;
  art.charged_bytes += static_cast<uint64_t>(n) * sizeof(std::vector<VertexId>);
  two_hop_ = std::move(art);
  cache_stats_.two_hop.build_us += static_cast<uint64_t>(build_timer.Micros());
  return *two_hop_;
}

const std::vector<VertexId>& PreparedGraph::DegreeOrder() {
  std::lock_guard<std::mutex> lock(mu_);
  if (degree_order_.has_value()) {
    ++cache_stats_.degree_order.hits;
    return *degree_order_;
  }
  CountBuild("degree_order");
  ++builds_;
  ++cache_stats_.degree_order.misses;
  util::Timer build_timer;
  const VertexId n = g_->NumVertices();
  std::vector<VertexId> order(n);
  for (VertexId u = 0; u < n; ++u) order[u] = u;
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g_->Degree(a) < g_->Degree(b);
  });
  degree_order_ = std::move(order);
  cache_stats_.degree_order.build_us +=
      static_cast<uint64_t>(build_timer.Micros());
  return *degree_order_;
}

const graph::CoreDecomposition& PreparedGraph::Cores() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cores_.has_value()) {
    ++cache_stats_.cores.hits;
    return *cores_;
  }
  CountBuild("cores");
  ++builds_;
  ++cache_stats_.cores.misses;
  util::Timer build_timer;
  cores_ = graph::ComputeCores(*g_);
  cache_stats_.cores.build_us += static_cast<uint64_t>(build_timer.Micros());
  return *cores_;
}

void PreparedGraph::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  filter_.reset();
  candidate_blooms_.clear();
  full_blooms_.clear();
  two_hop_.reset();
  degree_order_.reset();
  cores_.reset();
  if (util::metrics::Enabled()) {
    util::metrics::GetCounter("nsky.prepared.invalidations").Add(1);
  }
}

void PreparedGraph::Rebind(const Graph* g) {
  std::lock_guard<std::mutex> lock(mu_);
  g_ = g;
}

PreparedGraph::RepairOutcome PreparedGraph::RepairForUpdates(
    const Graph& old_g, const Graph& new_g,
    std::span<const graph::EdgeUpdate> updates) {
  NSKY_TRACE_SPAN("prepared.repair");
  NSKY_CHECK_MSG(old_g.NumVertices() == new_g.NumVertices(),
                 "repair requires a fixed vertex set");
  std::lock_guard<std::mutex> lock(mu_);
  g_ = &new_g;

  RepairOutcome outcome;
  const VertexId n = new_g.NumVertices();

  // Dirty set D = endpoints of the net batch plus their open neighborhoods
  // in both epochs; `endpoints` separately tracks the vertices whose own
  // adjacency row changed (the only dirty bloom rows / degree moves).
  std::vector<uint8_t> dirty_mark(n, 0);
  std::vector<uint8_t> endpoint_mark(n, 0);
  std::vector<VertexId> dirty;
  std::vector<VertexId> endpoints;
  auto add_dirty = [&](VertexId x) {
    if (!dirty_mark[x]) {
      dirty_mark[x] = 1;
      dirty.push_back(x);
    }
  };
  for (const graph::EdgeUpdate& e : updates) {
    NSKY_CHECK(e.u < n && e.v < n);
    for (VertexId x : {e.u, e.v}) {
      add_dirty(x);
      if (!endpoint_mark[x]) {
        endpoint_mark[x] = 1;
        endpoints.push_back(x);
      }
      for (VertexId y : old_g.Neighbors(x)) add_dirty(y);
      for (VertexId y : new_g.Neighbors(x)) add_dirty(y);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  std::sort(endpoints.begin(), endpoints.end());
  outcome.dirty_vertices = dirty.size();

  auto count_present = [&]() {
    uint64_t present = 0;
    present += filter_.has_value();
    present += two_hop_.has_value();
    present += degree_order_.has_value();
    present += cores_.has_value();
    present += candidate_blooms_.size();
    present += full_blooms_.size();
    return present;
  };

  // Fallback: the cost of repairing a dirty vertex is its 2-hop volume
  // (deg(u) plus the degree sum of its neighbors -- what the filter verdict
  // and 2-hop list rebuilds traverse), so the repair-vs-rebuild decision is
  // volume-based, not count-based. Counting vertices would miss the hub
  // bias: a vertex enters D as some endpoint's neighbor with probability
  // proportional to its degree, so a numerically small dirty set can still
  // carry rebuild-scale traversal volume on skewed graphs. When the dirty
  // volume exceeds the threshold share of the whole graph's, the "local"
  // patch is a full rebuild in disguise -- drop wholesale instead.
  uint64_t dirty_vol = 0;
  for (VertexId u : dirty) {
    dirty_vol += new_g.Degree(u);
    for (VertexId v : new_g.Neighbors(u)) dirty_vol += new_g.Degree(v);
  }
  uint64_t total_vol = 2 * new_g.NumEdges();
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t d = new_g.Degree(v);
    total_vol += d * d;
  }
  if (dirty_vol * 100 > total_vol * kRepairMaxDirtyPercent) {
    outcome.dropped_artifacts = count_present();
    filter_.reset();
    candidate_blooms_.clear();
    full_blooms_.clear();
    two_hop_.reset();
    degree_order_.reset();
    cores_.reset();
    if (util::metrics::Enabled()) {
      util::metrics::GetCounter("nsky.prepared.repair_fallbacks").Add(1);
    }
    return outcome;
  }

  // Filter artifacts: swap each dirty vertex's old-graph contribution for
  // its new-graph one, then rebuild the candidate set from the dominator
  // array (tracking whether the membership map changed for the bloom
  // repair below).
  bool member_changed = false;
  if (filter_.has_value()) {
    FilterArtifacts& fa = *filter_;
    for (VertexId u : dirty) {
      const FilterContribution before = FilterContributionOf(old_g, u);
      const FilterContribution after = FilterContributionOf(new_g, u);
      fa.stats.pairs_examined += after.pairs_examined - before.pairs_examined;
      fa.stats.degree_prunes += after.degree_prunes - before.degree_prunes;
      fa.stats.inclusion_tests +=
          after.inclusion_tests - before.inclusion_tests;
      fa.stats.nbr_elements_scanned +=
          after.nbr_elements_scanned - before.nbr_elements_scanned;
      fa.dominator[u] = after.dominator;
    }
    fa.candidates.clear();
    for (VertexId u = 0; u < n; ++u) {
      const uint8_t is_member = fa.dominator[u] == u ? 1 : 0;
      if (is_member) fa.candidates.push_back(u);
      if (fa.member[u] != is_member) {
        fa.member[u] = is_member;
        member_changed = true;
      }
    }
    fa.stats.candidate_count = fa.candidates.size();
    fa.stats.aux_peak_bytes =
        static_cast<uint64_t>(n) * sizeof(VertexId) +
        fa.candidates.size() * sizeof(VertexId);
    ++cache_stats_.filter.repairs;
    ++outcome.patched_artifacts;
  }

  // Bloom blocks: a row is a pure function of N(u), so only endpoint rows
  // are stale. Same membership -> rehash in place; changed membership ->
  // rebuild the block reusing every clean surviving row.
  for (auto& [bits, blooms] : full_blooms_) {
    blooms->RehashRows(new_g, endpoints);
    ++cache_stats_.full_blooms[bits].repairs;
    ++outcome.patched_artifacts;
  }
  if (!candidate_blooms_.empty()) {
    if (!filter_.has_value()) {
      // No membership map to repair against (possible only via partial
      // Restore*); drop rather than guess.
      outcome.dropped_artifacts += candidate_blooms_.size();
      candidate_blooms_.clear();
    } else {
      for (auto& [bits, blooms] : candidate_blooms_) {
        if (member_changed) {
          blooms = NeighborhoodBlooms::RepairedCopy(new_g, filter_->member,
                                                    *blooms, endpoint_mark);
        } else {
          blooms->RehashRows(new_g, endpoints);
        }
        ++cache_stats_.candidate_blooms[bits].repairs;
        ++outcome.patched_artifacts;
      }
    }
  }

  // 2-hop lists: exactly the dirty vertices aggregate a changed row; the
  // ledger charge moves by the size delta (the outer-array term is fixed).
  if (two_hop_.has_value()) {
    TwoHopArtifacts& th = *two_hop_;
    TwoHopScratch scratch(n);
    for (VertexId u : dirty) {
      th.charged_bytes -= th.lists[u].size() * sizeof(VertexId);
      th.lists[u] = scratch.ListOf(new_g, u);
      th.charged_bytes += th.lists[u].size() * sizeof(VertexId);
    }
    ++cache_stats_.two_hop.repairs;
    ++outcome.patched_artifacts;
  }

  // Degree order: only endpoint degrees changed. Pull them out and
  // reinsert at their (degree, id) position -- the fresh-build order is
  // exactly (degree ascending, id ascending).
  if (degree_order_.has_value()) {
    std::vector<VertexId>& order = *degree_order_;
    order.erase(std::remove_if(order.begin(), order.end(),
                               [&](VertexId x) { return endpoint_mark[x]; }),
                order.end());
    for (VertexId x : endpoints) {
      auto pos = std::lower_bound(
          order.begin(), order.end(), x, [&](VertexId a, VertexId b) {
            const uint32_t da = new_g.Degree(a);
            const uint32_t db = new_g.Degree(b);
            return da != db ? da < db : a < b;
          });
      order.insert(pos, x);
    }
    ++cache_stats_.degree_order.repairs;
    ++outcome.patched_artifacts;
  }

  // Core numbers come from a global peeling with no local repair; drop.
  if (cores_.has_value()) {
    cores_.reset();
    ++outcome.dropped_artifacts;
  }

  outcome.repaired = true;
  if (util::metrics::Enabled()) {
    util::metrics::GetCounter("nsky.prepared.repairs").Add(1);
  }
  return outcome;
}

uint64_t PreparedGraph::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

uint64_t PreparedGraph::BuildsOnThisThread() { return t_builds; }

PreparedGraph::CacheStats PreparedGraph::CacheStatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_stats_;
}

bool PreparedGraph::has_filter() const {
  std::lock_guard<std::mutex> lock(mu_);
  return filter_.has_value();
}

bool PreparedGraph::has_two_hop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return two_hop_.has_value();
}

const PreparedGraph::FilterArtifacts* PreparedGraph::PeekFilter() const {
  std::lock_guard<std::mutex> lock(mu_);
  return filter_.has_value() ? &*filter_ : nullptr;
}

const PreparedGraph::TwoHopArtifacts* PreparedGraph::PeekTwoHop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return two_hop_.has_value() ? &*two_hop_ : nullptr;
}

const std::vector<VertexId>* PreparedGraph::PeekDegreeOrder() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degree_order_.has_value() ? &*degree_order_ : nullptr;
}

const graph::CoreDecomposition* PreparedGraph::PeekCores() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cores_.has_value() ? &*cores_ : nullptr;
}

std::vector<uint32_t> PreparedGraph::CandidateBloomWidths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> widths;
  widths.reserve(candidate_blooms_.size());
  for (const auto& [bits, blooms] : candidate_blooms_) widths.push_back(bits);
  return widths;
}

std::vector<uint32_t> PreparedGraph::FullBloomWidths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> widths;
  widths.reserve(full_blooms_.size());
  for (const auto& [bits, blooms] : full_blooms_) widths.push_back(bits);
  return widths;
}

const NeighborhoodBlooms* PreparedGraph::PeekCandidateBlooms(
    uint32_t bits) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = candidate_blooms_.find(bits);
  return it != candidate_blooms_.end() ? it->second.get() : nullptr;
}

const NeighborhoodBlooms* PreparedGraph::PeekFullBlooms(uint32_t bits) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = full_blooms_.find(bits);
  return it != full_blooms_.end() ? it->second.get() : nullptr;
}

void PreparedGraph::RestoreFilter(FilterArtifacts artifacts) {
  std::lock_guard<std::mutex> lock(mu_);
  filter_ = std::move(artifacts);
}

void PreparedGraph::RestoreTwoHop(TwoHopArtifacts artifacts) {
  std::lock_guard<std::mutex> lock(mu_);
  two_hop_ = std::move(artifacts);
}

void PreparedGraph::RestoreDegreeOrder(std::vector<VertexId> order) {
  std::lock_guard<std::mutex> lock(mu_);
  degree_order_ = std::move(order);
}

void PreparedGraph::RestoreCores(graph::CoreDecomposition cores) {
  std::lock_guard<std::mutex> lock(mu_);
  cores_ = std::move(cores);
}

void PreparedGraph::RestoreCandidateBlooms(
    uint32_t bits, std::unique_ptr<NeighborhoodBlooms> blooms) {
  std::lock_guard<std::mutex> lock(mu_);
  candidate_blooms_[bits] = std::move(blooms);
}

void PreparedGraph::RestoreFullBlooms(
    uint32_t bits, std::unique_ptr<NeighborhoodBlooms> blooms) {
  std::lock_guard<std::mutex> lock(mu_);
  full_blooms_[bits] = std::move(blooms);
}

}  // namespace nsky::core
