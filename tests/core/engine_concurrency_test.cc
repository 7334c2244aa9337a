// Concurrent queries on one Engine (core/engine.h): many threads call
// Execute() at once on a cold engine, so the lazy artifact builds race.
// Every answer must stay bit-identical to a cold Solve(), every artifact
// must be built exactly once, and the warm/cold ledger must account for
// every call.
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/nsky.h"
#include "graph/generators.h"

namespace nsky::core {
namespace {

using graph::Graph;

constexpr Algorithm kAlgorithms[] = {Algorithm::kFilterRefine,
                                     Algorithm::kBaseSky, Algorithm::kBaseCSet,
                                     Algorithm::kBase2Hop};
constexpr uint32_t kThreadCounts[] = {1, 2};
constexpr int kShapes = std::size(kAlgorithms) * std::size(kThreadCounts);

SolverOptions Shape(int i) {
  SolverOptions options;
  options.algorithm = kAlgorithms[i % std::size(kAlgorithms)];
  options.threads = kThreadCounts[i / std::size(kAlgorithms)];
  return options;
}

// Every deterministic field, as in the engine equivalence suite.
bool SameResult(const SkylineResult& a, const SkylineResult& b) {
  return a.skyline == b.skyline && a.dominator == b.dominator &&
         a.stats.candidate_count == b.stats.candidate_count &&
         a.stats.pairs_examined == b.stats.pairs_examined &&
         a.stats.bloom_prunes == b.stats.bloom_prunes &&
         a.stats.degree_prunes == b.stats.degree_prunes &&
         a.stats.inclusion_tests == b.stats.inclusion_tests &&
         a.stats.nbr_elements_scanned == b.stats.nbr_elements_scanned &&
         a.stats.aux_peak_bytes == b.stats.aux_peak_bytes &&
         a.stats.degraded_from == b.stats.degraded_from &&
         a.stats.threads == b.stats.threads;
}

class EngineConcurrency : public ::testing::TestWithParam<int> {};

TEST_P(EngineConcurrency, ColdEngineRacesMatchSolveAndBuildOnce) {
  const int callers = GetParam();
  constexpr int kRounds = 2;
  const Graph g = graph::MakeChungLuPowerLaw(600, 2.2, 6, 11);
  std::vector<SkylineResult> expected;
  for (int i = 0; i < kShapes; ++i) expected.push_back(Solve(g, Shape(i)));

  Engine engine{Graph(g)};
  std::latch start(callers);
  std::vector<int> mismatches(callers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      QueryRequest request;
      QueryResponse response;
      for (int round = 0; round < kRounds; ++round) {
        // Rotate the order per caller so every artifact has several
        // callers racing for its first build.
        for (int k = 0; k < kShapes; ++k) {
          const int shape = (t + k) % kShapes;
          request.options = Shape(shape);
          engine.Execute(request, &response);
          if (!response.ok() || !SameResult(response.result, expected[shape])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < callers; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "caller " << t;
  }
  const EngineStats stats = engine.StatsSnapshot();
  const uint64_t calls = static_cast<uint64_t>(callers) * kRounds * kShapes;
  EXPECT_EQ(stats.queries_served, calls);
  EXPECT_EQ(stats.warm_queries + stats.cold_queries, calls);
  // One cold query per artifact at most: a caller that waited on another's
  // build is warm.
  EXPECT_GE(stats.cold_queries, 1u);
  EXPECT_LE(stats.cold_queries, stats.artifact_builds);

  EXPECT_EQ(stats.cache.filter.misses, 1u);
  EXPECT_EQ(stats.cache.two_hop.misses, 1u);
  ASSERT_FALSE(stats.cache.candidate_blooms.empty());
  ASSERT_FALSE(stats.cache.full_blooms.empty());
  for (const auto& [bits, s] : stats.cache.candidate_blooms) {
    EXPECT_EQ(s.misses, 1u) << "candidate blooms " << bits;
  }
  for (const auto& [bits, s] : stats.cache.full_blooms) {
    EXPECT_EQ(s.misses, 1u) << "full blooms " << bits;
  }
  EXPECT_EQ(stats.artifact_builds,
            2u + stats.cache.candidate_blooms.size() +
                stats.cache.full_blooms.size());
}

INSTANTIATE_TEST_SUITE_P(Callers, EngineConcurrency, ::testing::Values(4, 8));

}  // namespace
}  // namespace nsky::core
