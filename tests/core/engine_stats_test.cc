// Observability contract of core::Engine: the stats snapshot's cache
// hit/miss ledger is EXACT against a scripted query sequence, the flight
// recorder remembers queries in order (and wraps correctly), the slow-query
// hook captures phase traces, and both JSON documents parse with the
// documented schemas. Everything here is observation-only -- the
// equivalence suite separately pins that none of it changes results.
#include "core/engine_stats.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/flight_recorder.h"
#include "core/solver.h"
#include "core/solver_internal.h"
#include "graph/generators.h"
#include "util/execution_context.h"
#include "util/fault_injection.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace nsky::core {
namespace {

using graph::Graph;

Graph TestGraph() { return graph::MakeChungLuPowerLaw(2000, 2.6, 8, 7); }

SolverOptions Opts(Algorithm algorithm, uint32_t threads = 1) {
  SolverOptions o;
  o.algorithm = algorithm;
  o.threads = threads;
  return o;
}

// The filter-refine serving path consults the filter artifact three times
// per query (filter phase output, membership map, and the candidate-bloom
// accessor re-deriving its input) and the candidate blooms once. The first
// query builds each artifact (a miss), every later query hits.
TEST(EngineStats, FilterRefineCacheLedgerIsExact) {
  Engine engine{TestGraph()};

  engine.Query(Opts(Algorithm::kFilterRefine));
  EngineStats s1 = engine.StatsSnapshot();
  EXPECT_EQ(s1.queries_served, 1u);
  EXPECT_EQ(s1.cold_queries, 1u);
  EXPECT_EQ(s1.warm_queries, 0u);
  EXPECT_EQ(s1.cache.filter.misses, 1u);
  EXPECT_EQ(s1.cache.filter.hits, 2u);
  ASSERT_EQ(s1.cache.candidate_blooms.size(), 1u);
  const PreparedGraph::ArtifactStats& blooms1 =
      s1.cache.candidate_blooms.begin()->second;
  EXPECT_EQ(blooms1.misses, 1u);
  EXPECT_EQ(blooms1.hits, 0u);
  // Nothing the filter-refine path does not use was built.
  EXPECT_EQ(s1.cache.two_hop.misses, 0u);
  EXPECT_EQ(s1.cache.two_hop.hits, 0u);
  EXPECT_TRUE(s1.cache.full_blooms.empty());

  engine.Query(Opts(Algorithm::kFilterRefine));
  engine.Query(Opts(Algorithm::kFilterRefine));
  EngineStats s3 = engine.StatsSnapshot();
  EXPECT_EQ(s3.queries_served, 3u);
  EXPECT_EQ(s3.cold_queries, 1u);
  EXPECT_EQ(s3.warm_queries, 2u);
  EXPECT_EQ(s3.cache.filter.misses, 1u);
  EXPECT_EQ(s3.cache.filter.hits, 8u);  // 2 on the cold query, 3 per warm one
  const PreparedGraph::ArtifactStats& blooms3 =
      s3.cache.candidate_blooms.begin()->second;
  EXPECT_EQ(blooms3.misses, 1u);
  EXPECT_EQ(blooms3.hits, 2u);
}

TEST(EngineStats, TwoHopCacheLedgerIsExact) {
  Engine engine{TestGraph()};

  engine.Query(Opts(Algorithm::kBase2Hop));
  EngineStats s1 = engine.StatsSnapshot();
  EXPECT_EQ(s1.cold_queries, 1u);
  EXPECT_EQ(s1.cache.two_hop.misses, 1u);
  EXPECT_EQ(s1.cache.two_hop.hits, 0u);
  ASSERT_EQ(s1.cache.full_blooms.size(), 1u);
  EXPECT_EQ(s1.cache.full_blooms.begin()->second.misses, 1u);

  engine.Query(Opts(Algorithm::kBase2Hop));
  EngineStats s2 = engine.StatsSnapshot();
  EXPECT_EQ(s2.warm_queries, 1u);
  EXPECT_EQ(s2.cache.two_hop.misses, 1u);
  EXPECT_EQ(s2.cache.two_hop.hits, 1u);
  EXPECT_EQ(s2.cache.full_blooms.begin()->second.hits, 1u);
  // Build time was measured for each built artifact.
  EXPECT_GT(s2.artifact_builds, 0u);
}

TEST(EngineStats, WorkspaceAndLatencyLedgers) {
  Engine engine{TestGraph()};
  engine.Query(Opts(Algorithm::kFilterRefine, 1));
  engine.Query(Opts(Algorithm::kFilterRefine, 2));
  engine.Query(Opts(Algorithm::kBase2Hop, 2));
  engine.Query(Opts(Algorithm::kBaseSky, 1));

  EngineStats s = engine.StatsSnapshot();
  // One pooled workspace per resolved thread count, each with a live
  // allocation ledger.
  ASSERT_EQ(s.workspaces.size(), 2u);
  EXPECT_EQ(s.workspaces[0].threads, 1u);
  EXPECT_EQ(s.workspaces[1].threads, 2u);
  for (const EngineStats::WorkspaceStats& ws : s.workspaces) {
    EXPECT_GT(ws.allocation_events, 0u);
    EXPECT_GT(ws.allocated_bytes, 0u);
  }

  // Latency histograms in Algorithm enum order; never-queried algorithms
  // (cset here) are omitted.
  ASSERT_EQ(s.latency.size(), 3u);
  EXPECT_EQ(s.latency[0].algorithm, "filter-refine");
  EXPECT_EQ(s.latency[0].latency_us.count, 2u);
  EXPECT_EQ(s.latency[1].algorithm, "base");
  EXPECT_EQ(s.latency[1].latency_us.count, 1u);
  EXPECT_EQ(s.latency[2].algorithm, "2hop");
  EXPECT_EQ(s.latency[2].latency_us.count, 1u);
}

// A degraded query's latency is charged to the algorithm that ran
// (filter-refine), and the recorder keeps the requested algorithm in
// degraded_from.
TEST(EngineStats, DegradedQueryAttribution) {
  Graph g = TestGraph();
  SolverOptions options = Opts(Algorithm::kBase2Hop);
  Engine engine{Graph(g)};
  SkylineResult result;
  util::ExecutionContext ctx;
  // Just under what 2hop needs: it must degrade to filter-refine.
  ctx.set_byte_budget(internal::EstimateBase2HopBytes(g, options) - 1);
  util::Status status = engine.QueryInto(options, ctx, &result);
  ASSERT_TRUE(status.ok()) << status.message();
  ASSERT_EQ(result.stats.degraded_from, "2hop");

  EngineStats s = engine.StatsSnapshot();
  ASSERT_EQ(s.latency.size(), 1u);
  EXPECT_EQ(s.latency[0].algorithm, "filter-refine");
  EXPECT_EQ(s.latency[0].latency_us.count, 1u);

  std::vector<QueryRecord> recent = engine.recorder().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].algorithm, Algorithm::kFilterRefine);
  EXPECT_EQ(recent[0].degraded_from,
            static_cast<int8_t>(Algorithm::kBase2Hop));
}

TEST(EngineStats, MetricsDisabledSkipsLatencyButKeepsLedgers) {
  Engine engine{TestGraph()};
  util::metrics::SetEnabled(false);
  engine.Query(Opts(Algorithm::kFilterRefine));
  util::metrics::SetEnabled(true);

  EngineStats s = engine.StatsSnapshot();
  // The cache ledger and query counters are engine bookkeeping -- always
  // on; only the Histogram::Observe path honors the global switch.
  EXPECT_EQ(s.queries_served, 1u);
  EXPECT_EQ(s.cache.filter.misses, 1u);
  EXPECT_TRUE(s.latency.empty());
}

TEST(EngineStats, JsonDocumentParsesWithSchema) {
  Engine engine{TestGraph()};
  engine.Query(Opts(Algorithm::kFilterRefine, 2));
  engine.Query(Opts(Algorithm::kFilterRefine, 2));

  std::string error;
  auto v = util::JsonParse(engine.StatsJson(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->Find("schema")->str, "nsky.engine_stats.v1");
  EXPECT_EQ(v->Find("queries_served")->number, 2);
  EXPECT_EQ(v->Find("warm_queries")->number, 1);
  EXPECT_EQ(v->Find("cold_queries")->number, 1);
  const util::JsonValue* filter = v->Find("cache")->Find("filter");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->Find("misses")->number, 1);
  EXPECT_EQ(filter->Find("hits")->number, 5);
  const util::JsonValue* latency =
      v->Find("latency_us")->Find("filter-refine");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("count")->number, 2);
  ASSERT_NE(latency->Find("p50"), nullptr);
  ASSERT_NE(latency->Find("p99"), nullptr);
  ASSERT_FALSE(v->Find("workspaces")->array.empty());
}

TEST(EngineStats, PrometheusExportLintsClean) {
  Engine engine{TestGraph()};
  engine.Query(Opts(Algorithm::kFilterRefine));
  std::string text = EngineStatsToPrometheus(engine.StatsSnapshot());
  EXPECT_NE(text.find("# TYPE nsky_engine_queries_served counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsky_engine_queries_served 1\n"), std::string::npos);
  EXPECT_NE(text.find("nsky_engine_artifact_misses{artifact=\"filter\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("algo=\"filter-refine\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // No unsanitized characters leaked into series names.
  EXPECT_EQ(text.find("nsky."), std::string::npos);
}

// --- Flight recorder -------------------------------------------------------

QueryRecord MakeRecord(uint64_t duration) {
  QueryRecord r;
  r.algorithm = Algorithm::kBaseSky;
  r.threads = 2;
  r.warm = true;
  r.duration_us = duration;
  r.skyline_size = duration + 1;
  r.aux_peak_bytes = duration * 10;
  return r;
}

TEST(FlightRecorder, RecentReturnsOldestFirstAndWraps) {
  FlightRecorder rec(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    uint64_t seq = rec.Record(MakeRecord(i));
    EXPECT_EQ(seq, i);
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);

  std::vector<QueryRecord> recent = rec.Recent();
  ASSERT_EQ(recent.size(), 4u);  // ring wrapped: only the last 4 survive
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, 7 + i);
    EXPECT_EQ(recent[i].duration_us, 7 + i);
    EXPECT_EQ(recent[i].skyline_size, 8 + i);
  }

  std::vector<QueryRecord> last2 = rec.Recent(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].seq, 9u);
  EXPECT_EQ(last2[1].seq, 10u);
}

TEST(FlightRecorder, JsonDocumentParsesWithSchema) {
  FlightRecorder rec(8);
  rec.Record(MakeRecord(5));
  rec.Record(MakeRecord(6));

  std::string error;
  auto v = util::JsonParse(rec.ToJson(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->Find("schema")->str, "nsky.queries.v1");
  EXPECT_EQ(v->Find("capacity")->number, 8);
  EXPECT_EQ(v->Find("total")->number, 2);
  const util::JsonValue* records = v->Find("records");
  ASSERT_EQ(records->array.size(), 2u);
  EXPECT_EQ(records->array[0].Find("seq")->number, 1);
  EXPECT_EQ(records->array[0].Find("algorithm")->str, "base");
  EXPECT_EQ(records->array[0].Find("duration_us")->number, 5);
  EXPECT_EQ(records->array[0].Find("status")->str, "OK");
  EXPECT_TRUE(v->Find("slow")->array.empty());
}

TEST(FlightRecorder, EngineRecordsEveryQueryInOrder) {
  Engine engine{TestGraph()};
  engine.Query(Opts(Algorithm::kFilterRefine, 2));
  engine.Query(Opts(Algorithm::kBase2Hop, 1));

  std::vector<QueryRecord> recent = engine.recorder().Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].seq, 1u);
  EXPECT_EQ(recent[0].algorithm, Algorithm::kFilterRefine);
  EXPECT_EQ(recent[0].threads, 2u);
  EXPECT_FALSE(recent[0].warm);  // first query builds artifacts
  EXPECT_GT(recent[0].skyline_size, 0u);
  EXPECT_GT(recent[0].aux_peak_bytes, 0u);
  EXPECT_EQ(recent[0].status, util::StatusCode::kOk);
  EXPECT_EQ(recent[0].degraded_from, -1);
  EXPECT_EQ(recent[1].seq, 2u);
  EXPECT_EQ(recent[1].algorithm, Algorithm::kBase2Hop);
  EXPECT_FALSE(recent[1].warm);  // 2hop builds its own artifacts

  // Record matches the result the caller saw.
  SkylineResult again = engine.Query(Opts(Algorithm::kFilterRefine, 2));
  std::vector<QueryRecord> r3 = engine.recorder().Recent();
  ASSERT_EQ(r3.size(), 3u);
  EXPECT_TRUE(r3[2].warm);
  EXPECT_EQ(r3[2].skyline_size, again.skyline.size());
  EXPECT_EQ(r3[2].aux_peak_bytes, again.stats.aux_peak_bytes);
}

TEST(FlightRecorder, SlowQueryHookCapturesPhaseTrace) {
  Engine engine{TestGraph()};
  EXPECT_EQ(engine.slow_query_threshold_us(), 0u);  // env var not set
  engine.set_slow_query_threshold_us(1);            // everything is "slow"
  engine.Query(Opts(Algorithm::kFilterRefine));

  std::vector<FlightRecorder::SlowQuery> slow =
      engine.recorder().SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].threshold_us, 1u);
  EXPECT_EQ(slow[0].record.seq, 1u);
  EXPECT_GE(slow[0].record.duration_us, 1u);
  ASSERT_FALSE(slow[0].spans.empty());
  for (const FlightRecorder::SpanSummary& span : slow[0].spans) {
    EXPECT_FALSE(span.name.empty());
    EXPECT_GE(span.dur_us, span.self_us);
  }

  // A fast threshold stops capturing once queries beat it.
  engine.set_slow_query_threshold_us(60u * 1000 * 1000);
  engine.Query(Opts(Algorithm::kFilterRefine));
  EXPECT_EQ(engine.recorder().SlowQueries().size(), 1u);
}

// Queries that overlap the capturing one trace into the same collector;
// the slow record keeps only the capturing query's own threads. The
// capturing query runs at one thread and every pool slice sleeps, so the
// second query (four threads, a quarter of the slices each) starts after
// the capture is armed and finishes well before it ends.
TEST(FlightRecorder, SlowQueryCaptureKeepsOnlyItsOwnSpans) {
  Engine engine{graph::MakeErdosRenyi(12000, 0.0003, 3)};
  engine.Query(Opts(Algorithm::kFilterRefine));  // warm: no builds below
  engine.Query(Opts(Algorithm::kFilterRefine, 4));
  ASSERT_GE(engine.Filter().candidates.size(), 8u * 1024);
  engine.set_slow_query_threshold_us(1);
  ASSERT_TRUE(util::FaultInjector::ArmForTest("pool.chunk_delay_ms=10"));

  std::thread capturing(
      [&] { engine.Query(Opts(Algorithm::kFilterRefine)); });
  while (!util::trace::Enabled()) std::this_thread::yield();
  engine.Query(Opts(Algorithm::kFilterRefine, 4));
  const bool overlapped = util::trace::Enabled();
  capturing.join();
  util::FaultInjector::Disarm();
  ASSERT_TRUE(overlapped) << "the second query outlasted the capturing one";

  std::vector<FlightRecorder::SlowQuery> slow = engine.recorder().SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].record.threads, 1u);
  int filter_refine_roots = 0;
  for (const FlightRecorder::SpanSummary& span : slow[0].spans) {
    if (span.depth == 0 && span.name == "filter_refine") ++filter_refine_roots;
  }
  EXPECT_EQ(filter_refine_roots, 1);

  // The capturing query's own pool workers stay in: their refine slices
  // are roots of the workers' tracks.
  engine.Query(Opts(Algorithm::kFilterRefine, 2));
  slow = engine.recorder().SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  bool worker_root = false;
  for (const FlightRecorder::SpanSummary& span : slow[1].spans) {
    worker_root |= span.depth == 0 && span.name == "refine.worker";
  }
  EXPECT_TRUE(worker_root);
}

TEST(FlightRecorder, SlowLogIsBounded) {
  FlightRecorder rec(4);
  for (uint64_t i = 1; i <= FlightRecorder::kMaxSlowQueries + 3; ++i) {
    QueryRecord r = MakeRecord(i);
    r.seq = rec.Record(r);
    rec.RecordSlow(r, 1, {});
  }
  std::vector<FlightRecorder::SlowQuery> slow = rec.SlowQueries();
  ASSERT_EQ(slow.size(), FlightRecorder::kMaxSlowQueries);
  // Oldest entries were evicted; the newest survive in order.
  EXPECT_EQ(slow.front().record.duration_us, 4u);
  EXPECT_EQ(slow.back().record.duration_us,
            FlightRecorder::kMaxSlowQueries + 3);
}

}  // namespace
}  // namespace nsky::core
