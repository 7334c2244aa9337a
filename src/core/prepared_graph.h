// PreparedGraph: immutable, lazily-built cache of graph-derived artifacts.
//
// Every solver pass over the same graph rebuilds the same pure-function-of-
// the-graph structures: the filter-phase candidate set and its O(*) array,
// the neighborhood bloom blocks, the 2-hop adjacency lists, the degree and
// degeneracy orderings. A PreparedGraph computes each artifact once, on
// first request, and hands out const references afterwards, so a warm
// engine (core/engine.h) answers repeated queries without re-deriving any
// of them -- and the clique / centrality / setjoin consumers can share them
// instead of privately recomputing the skyline.
//
// Contract:
//  * Read-only sharing: every artifact is a pure function of the graph (and
//    of the requesting options, e.g. the bloom width). Once built it is
//    immutable, so any number of sequential queries may hold references.
//  * Determinism: artifacts are built with the same deterministic code
//    paths the cold solvers use (filter phase, bloom construction, 2-hop
//    materialization), so a query served from the cache is bit-identical --
//    skyline, dominator array and every deterministic SkylineStats counter,
//    including aux_peak_bytes -- to a cold Solve() at any thread count.
//  * Builds run under an unlimited ExecutionContext: an artifact is shared
//    state, not per-query work, so it is never left half-built by a
//    deadline. Per-query limits still apply at every solver phase boundary;
//    the only visible difference is that a warm query can succeed where the
//    equivalent cold run would have been interrupted mid-build.
//  * Invalidation: Invalidate() drops every artifact. DynamicSkyline's
//    invalidation hook (core/dynamic_skyline.h) is the intended caller --
//    bulk graph updates rebuild, small updates stay incremental.
//  * The graph must outlive the PreparedGraph and must not change while
//    artifacts are live (rebuild through Engine::RefreshFrom instead).
//  * Concurrency: the accessors may be called by many queries at once.
//    Lazy builds run under an internal mutex, so each artifact is built
//    exactly once (one miss) and only read afterwards. Invalidate(),
//    Rebind(), RepairForUpdates() and Restore*() replace artifacts that
//    running queries hold references to, so they must be exclusive with
//    every query (core::Engine states which of its calls may overlap).
#ifndef NSKY_CORE_PREPARED_GRAPH_H_
#define NSKY_CORE_PREPARED_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/bloom.h"
#include "core/skyline.h"
#include "graph/cores.h"
#include "graph/graph.h"
#include "graph/versioned_graph.h"

namespace nsky::util {
class ThreadPool;
}  // namespace nsky::util

namespace nsky::core {

class PreparedGraph {
 public:
  // Output of the filter phase (Algorithm 2) plus the candidate-membership
  // byte map the refine scans snapshot.
  struct FilterArtifacts {
    std::vector<VertexId> candidates;  // candidate set C, sorted ascending
    std::vector<VertexId> dominator;   // edge-constrained O(*) array
    std::vector<uint8_t> member;       // member[u] == 1 iff u in C
    SkylineStats stats;                // deterministic filter-phase stats
  };

  // Materialized 2-hop adjacency (RunBase2Hop's expensive build) plus the
  // deterministic ledger charge of the lists, stored so a warm run reports
  // the exact aux_peak_bytes a cold run would.
  struct TwoHopArtifacts {
    std::vector<std::vector<VertexId>> lists;
    uint64_t charged_bytes = 0;
  };

  // Per-artifact cache accounting. A "miss" is an accessor call that had to
  // build (misses == times built since construction / last Invalidate-era
  // counts are NOT reset -- the stats are cumulative over the object's
  // lifetime); a "hit" is an accessor call served from the cache. build_us
  // accumulates the wall time of the builds.
  struct ArtifactStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t build_us = 0;
    // Times the artifact was patched in place by RepairForUpdates (never
    // counted as a hit, miss or build; warm detection stays intact).
    uint64_t repairs = 0;
  };

  // Snapshot of every artifact's cache accounting; bloom blocks are keyed by
  // their bit width, matching the cache itself.
  struct CacheStats {
    ArtifactStats filter;
    ArtifactStats two_hop;
    ArtifactStats degree_order;
    ArtifactStats cores;
    std::map<uint32_t, ArtifactStats> candidate_blooms;
    std::map<uint32_t, ArtifactStats> full_blooms;
  };

  // Non-owning: `g` must outlive this object (core/engine.h owns both).
  explicit PreparedGraph(const Graph* g) : g_(g) {}
  PreparedGraph(const PreparedGraph&) = delete;
  PreparedGraph& operator=(const PreparedGraph&) = delete;

  const Graph& graph() const { return *g_; }

  // Filter-phase artifacts; built on first call with `pool`.
  const FilterArtifacts& Filter(util::ThreadPool& pool);

  // Bloom block over the open neighborhoods of the filter candidates at the
  // given width (one cached block per width).
  const NeighborhoodBlooms& CandidateBlooms(uint32_t bits,
                                            util::ThreadPool& pool);

  // Bloom block over the open neighborhoods of *all* vertices (RunBase2Hop).
  const NeighborhoodBlooms& FullBlooms(uint32_t bits, util::ThreadPool& pool);

  // Materialized, deduplicated 2-hop neighbor lists for every vertex.
  const TwoHopArtifacts& TwoHop(util::ThreadPool& pool);

  // Vertices ordered by (degree ascending, id ascending) -- the scan order
  // degree-bounded consumers want.
  const std::vector<VertexId>& DegreeOrder();

  // Core decomposition: core numbers plus the degeneracy (peeling) order,
  // the canonical seed order for the clique searches.
  const graph::CoreDecomposition& Cores();

  // Drops every cached artifact; the next request rebuilds from the current
  // graph. Wired to DynamicSkyline's invalidation hook for bulk updates.
  void Invalidate();

  // --- Incremental repair (Engine::ApplyUpdates) ---------------------------

  // Repoints the prepared view at a new Graph object without touching the
  // artifact cache. Only correct when the new object is structurally
  // identical to the old one, or when every artifact is dropped in the same
  // breath (Engine::RefreshFrom pairs this with Invalidate()).
  void Rebind(const Graph* g);

  struct RepairOutcome {
    bool repaired = false;          // false = fell back to a full drop
    uint64_t dirty_vertices = 0;    // |D|: vertices whose verdicts were redone
    uint64_t patched_artifacts = 0;
    uint64_t dropped_artifacts = 0;
  };

  // Fallback policy: when the dirty set's 2-hop volume (sum over dirty u of
  // deg(u) + degree sum of N(u) -- the traversal cost of re-deriving u's
  // verdict and 2-hop list) exceeds this percentage of the whole graph's,
  // a local patch would cost a rebuild anyway, so every artifact is dropped
  // instead (deterministic function of the update batch). Volume, not
  // vertex count: neighbors enter the dirty set with probability
  // proportional to their degree, so on skewed graphs a small dirty SET is
  // routinely a large dirty VOLUME.
  static constexpr uint32_t kRepairMaxDirtyPercent = 25;

  // Locally patches every materialized artifact after the edge batch
  // `updates` turned `old_g` (the epoch the artifacts were built against)
  // into `new_g`, and rebinds the prepared view to `new_g`. `updates` must
  // be the NET batch (graph::VersionedGraph::StagedUpdates()); old_g and
  // new_g must have the same vertex count.
  //
  // Only vertices within the dirty set D = endpoints union their open
  // neighborhoods (in old_g and new_g) can change any artifact row:
  //  * filter verdict / dominator[u] reads N(u), deg of N(u) and rows of
  //    N(u) -- all unchanged outside D;
  //  * 2-hop lists aggregate exactly those rows;
  //  * bloom rows are pure functions of N(u), dirty only for endpoints;
  //  * the degree order moves only endpoints (their degree changed);
  //  * cores have no local repair (global peeling) and are dropped.
  // Patched artifacts are bit-identical to a fresh build on new_g,
  // including the replayed filter stats and ledger charges. Absent
  // artifacts stay absent. When D's 2-hop volume exceeds
  // kRepairMaxDirtyPercent% of the graph's, the cache is dropped wholesale
  // instead (repaired=false in the outcome).
  RepairOutcome RepairForUpdates(const Graph& old_g, const Graph& new_g,
                                 std::span<const graph::EdgeUpdate> updates);

  // Artifact builds performed since construction (telemetry; a warm serving
  // loop should see this settle while queries_served keeps growing).
  uint64_t builds() const;

  // Artifact builds the calling thread has performed, on any PreparedGraph.
  // A build runs on the thread that called the accessor, so the delta
  // across one query tells whether that query built anything; the delta of
  // builds() would also count a concurrent query's build.
  static uint64_t BuildsOnThisThread();

  // Point-in-time copy of the per-artifact hit / miss / build-time ledger.
  // Observation-only: nothing in the library reads these to make decisions.
  CacheStats CacheStatsSnapshot() const;

  // Introspection for tests: which artifacts are currently materialized.
  bool has_filter() const;
  bool has_two_hop() const;

  // --- Serialization surface (src/persist/) -------------------------------
  //
  // Peek* returns the artifact only if it is already materialized -- never
  // builds, never counts a hit or miss. Restore* installs a previously
  // serialized artifact without touching builds() or the miss counters, so
  // queries against a snapshot-loaded engine register as warm (the loaded
  // artifacts ARE the warm state, byte-for-byte). Restoring over an existing
  // artifact replaces it; callers are expected to restore into a fresh
  // PreparedGraph. Bloom blocks are keyed by bit width, like the cache.
  const FilterArtifacts* PeekFilter() const;
  const TwoHopArtifacts* PeekTwoHop() const;
  const std::vector<VertexId>* PeekDegreeOrder() const;
  const graph::CoreDecomposition* PeekCores() const;
  std::vector<uint32_t> CandidateBloomWidths() const;
  std::vector<uint32_t> FullBloomWidths() const;
  const NeighborhoodBlooms* PeekCandidateBlooms(uint32_t bits) const;
  const NeighborhoodBlooms* PeekFullBlooms(uint32_t bits) const;
  void RestoreFilter(FilterArtifacts artifacts);
  void RestoreTwoHop(TwoHopArtifacts artifacts);
  void RestoreDegreeOrder(std::vector<VertexId> order);
  void RestoreCores(graph::CoreDecomposition cores);
  void RestoreCandidateBlooms(uint32_t bits,
                              std::unique_ptr<NeighborhoodBlooms> blooms);
  void RestoreFullBlooms(uint32_t bits,
                         std::unique_ptr<NeighborhoodBlooms> blooms);

 private:
  const Graph* g_;

  mutable std::mutex mu_;
  std::optional<FilterArtifacts> filter_;
  std::map<uint32_t, std::unique_ptr<NeighborhoodBlooms>> candidate_blooms_;
  std::map<uint32_t, std::unique_ptr<NeighborhoodBlooms>> full_blooms_;
  std::optional<TwoHopArtifacts> two_hop_;
  std::optional<std::vector<VertexId>> degree_order_;
  std::optional<graph::CoreDecomposition> cores_;
  uint64_t builds_ = 0;
  CacheStats cache_stats_;
};

}  // namespace nsky::core

#endif  // NSKY_CORE_PREPARED_GRAPH_H_
