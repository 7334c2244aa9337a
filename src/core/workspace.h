// SolverWorkspace: pooled per-query scratch for the solver engine.
//
// Every solver needs the same families of scratch -- a candidate-membership
// byte map, per-worker stat accumulators, per-worker intersection counters,
// 2-hop build buffers. Historically each Solve() call allocated them fresh;
// a SolverWorkspace owns them across queries so a warm engine
// (core/engine.h) answers repeated queries without touching the heap.
//
// Contract:
//  * Prepare*() returns a buffer sized for the request. Contents are
//    UNSPECIFIED unless the method documents otherwise -- solvers must
//    initialize everything they read, never rely on values left behind by a
//    previous query. The poisoned-scratch test (tests/core/workspace_test.cc)
//    enforces this by filling every buffer with garbage between queries.
//  * Growth is the only allocation: Prepare*() reserves when capacity is
//    short and records the event in allocation_events()/allocated_bytes().
//    Once a workspace has served one query of a given shape (n, workers,
//    algorithm), identical queries are allocation-free -- the property the
//    engine's warm path asserts through these counters.
//  * Determinism: the workspace never influences results. All deterministic
//    ledger charges (SkylineStats::aux_peak_bytes) are computed from logical
//    sizes, not from reused capacities, so a pooled run reports bit-identical
//    stats to a fresh run (core/solver.h).
//  * One workspace serves one query at a time: core::Engine checks an
//    instance out of a per-thread-count free list for each query, so
//    concurrent queries never share one. Only the allocation ledger may be
//    read while a query runs (engine stats scrapes).
#ifndef NSKY_CORE_WORKSPACE_H_
#define NSKY_CORE_WORKSPACE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/skyline.h"
#include "graph/graph.h"

namespace nsky::core {

class SolverWorkspace {
 public:
  SolverWorkspace() = default;
  SolverWorkspace(const SolverWorkspace&) = delete;
  SolverWorkspace& operator=(const SolverWorkspace&) = delete;

  // Membership byte map sized n, zero-filled (callers mark their members).
  std::vector<uint8_t>& PrepareMember(uint64_t n);

  // 2-hop adjacency buffer (RunBase2Hop): outer vector sized n, every inner
  // list cleared with its capacity retained.
  std::vector<std::vector<VertexId>>& PrepareTwoHop(uint64_t n);

  // Per-worker deterministic stat accumulators, reset to zero.
  std::vector<SkylineStats>& PrepareWorkerStats(unsigned workers);

  // Per-worker intersection counters (BaseSky/BaseCSet), each sized n and
  // zero-filled.
  std::vector<std::vector<uint32_t>>& PrepareWorkerCounts(unsigned workers,
                                                          uint64_t n);

  // Per-worker touched-vertex lists, cleared (capacity retained).
  std::vector<std::vector<VertexId>>& PrepareWorkerTouched(unsigned workers);

  // Per-worker uint64 accumulators (byte tallies), zero-filled.
  std::vector<uint64_t>& PrepareWorkerBytes(unsigned workers);

  // Cumulative count of capacity growths since construction and the bytes
  // they added. A warm engine query on a previously-seen shape leaves both
  // unchanged -- the ledger the zero-allocation tests assert on.
  uint64_t allocation_events() const {
    return allocation_events_.load(std::memory_order_relaxed);
  }
  uint64_t allocated_bytes() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

  // Fills every live buffer with garbage (0xAB patterns). Test-only: proves
  // solvers initialize all scratch they read instead of relying on state
  // left behind by earlier queries.
  void PoisonForTesting();

 private:
  template <typename T>
  void Reserve(std::vector<T>& v, size_t need) {
    if (v.capacity() < need) {
      allocation_events_.fetch_add(1, std::memory_order_relaxed);
      allocated_bytes_.fetch_add((need - v.capacity()) * sizeof(T),
                                 std::memory_order_relaxed);
      v.reserve(need);
    }
  }

  std::vector<uint8_t> member_;
  std::vector<std::vector<VertexId>> two_hop_;
  std::vector<SkylineStats> worker_stats_;
  std::vector<std::vector<uint32_t>> worker_counts_;
  std::vector<std::vector<VertexId>> worker_touched_;
  std::vector<uint64_t> worker_bytes_;

  // Atomic so a stats scrape can read them while the owning query runs.
  std::atomic<uint64_t> allocation_events_{0};
  std::atomic<uint64_t> allocated_bytes_{0};
};

}  // namespace nsky::core

#endif  // NSKY_CORE_WORKSPACE_H_
