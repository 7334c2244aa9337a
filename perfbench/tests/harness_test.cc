// Tests of the serving benchmark's own arithmetic and inputs: the tail
// percentile rule, the derived per-layer metrics, span self times, seed
// determinism of the generated inputs, and agreement between the recorded
// workload / interaction-map documents and the benchmark's definitions.
#include <cmath>
#include <fstream>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "body_check.h"
#include "datasets/registry.h"
#include "graph/io.h"
#include "inputs.h"
#include "persist/snapshot.h"
#include "spans.h"
#include "stats.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace nsky::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, PicksHighestPercentileWithTenSamplesBeyond) {
  Tail t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.name, "p99");
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  t = TailPercentile(OneTo(999));  // p99 would leave only 9 beyond
  EXPECT_EQ(t.name, "p95");
  EXPECT_EQ(t.value, 950);
  EXPECT_EQ(t.beyond, 49u);

  t = TailPercentile(OneTo(10000));
  EXPECT_EQ(t.name, "p99.9");
  EXPECT_EQ(t.value, 9990);
  EXPECT_EQ(t.beyond, 10u);

  t = TailPercentile(OneTo(40));  // 2/s reloads over 20 s
  EXPECT_EQ(t.name, "p75");
  EXPECT_EQ(t.value, 30);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackToMedianBelowTwentySamples) {
  Tail t = TailPercentile(OneTo(19));
  EXPECT_EQ(t.name, "p50");
  EXPECT_EQ(t.value, 10);
  EXPECT_EQ(t.beyond, 9u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(TailPercentile(v).value, 190);  // p95 of 200
  EXPECT_EQ(Median(v), 100);
  EXPECT_EQ(Percentile(v, 1.0), 200);
}

TEST(SummarizeWindows, MedianOverWindowsIgnoresOneDisturbedWindow) {
  std::vector<double> at, v;
  for (int i = 0; i < 1000; ++i) {  // 100/s for 10 s
    const double t = i * 0.01;
    at.push_back(t);
    v.push_back(t >= 2 && t < 4 ? 100.0 : 10.0 + (i % 10));
  }
  at.push_back(10.5);  // completed after the phase: ignored
  v.push_back(1000);
  const WindowedSummary s = SummarizeWindows(at, v, 10, 2);
  EXPECT_EQ(s.windows, 5);
  EXPECT_EQ(s.min_window_samples, 200u);
  EXPECT_EQ(s.tail_name, "p95");
  EXPECT_NEAR(s.rate_per_s, 100, 1e-6);
  EXPECT_EQ(s.p50, 14);
  EXPECT_EQ(s.tail, 19);
}

TEST(SummarizeWindows, ShortPhaseIsOneWindow) {
  const WindowedSummary s = SummarizeWindows({0.1, 0.6, 1.1}, {5, 7, 6}, 1.5, 50);
  EXPECT_EQ(s.windows, 1);
  EXPECT_EQ(s.min_window_samples, 3u);
  EXPECT_EQ(s.tail_name, "p50");
  EXPECT_EQ(s.p50, 6);
  EXPECT_DOUBLE_EQ(s.rate_per_s, 2);  // 2 intervals over 1 s
}

TEST(SummarizeWindows, ReportsEachWindowsMedianInOrder) {
  const WindowedSummary s =
      SummarizeWindows({0.5, 1.5, 1.6, 3.5}, {4, 8, 6, 9}, 4, 1);
  ASSERT_EQ(s.window_p50s.size(), 4u);
  EXPECT_EQ(s.window_p50s[0], 4);
  EXPECT_EQ(s.window_p50s[1], 6);
  EXPECT_TRUE(std::isnan(s.window_p50s[2]));  // no sample
  EXPECT_EQ(s.window_p50s[3], 9);
  EXPECT_EQ(WindowCount(4, 1), 4);
  EXPECT_EQ(WindowCount(0.5, 2), 1);
}

TEST(TracingOverhead, ComparesEachUntracedWindowWithItsNeighbours) {
  // The machine slows by 10 per window and tracing adds 1 to the even
  // windows: every triple reads 1, where the phase-wide traced minus
  // untraced median (51 - 40) would read 11.
  const std::vector<double> p50s = {11, 20, 31, 40, 51, 60, 71};
  EXPECT_DOUBLE_EQ(TracedMinusUntraced(p50s), 1);
  // A window without samples drops the triples it is in; a trailing
  // untraced window without a traced successor is not used.
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(TracedMinusUntraced({12, 10, nan, 10, 12, 9, 14, 10}), 4);
  EXPECT_TRUE(std::isnan(TracedMinusUntraced({11, 10})));
}

TEST(DerivedMetrics, Arithmetic) {
  EXPECT_DOUBLE_EQ(QueueWaitUs(/*concurrent=*/25000, /*single=*/6500), 18500);
  // The machine slows from pair to pair; each round trip costs 300 more
  // than its handle, apart from one outlier.
  EXPECT_DOUBLE_EQ(TransportUs(/*round_trip=*/{5300, 6300, 9900, 7300},
                               /*handle=*/{5000, 6000, 7000, 7000},
                               /*parse=*/10, /*serialize=*/12),
                   278);
  EXPECT_TRUE(std::isnan(TransportUs({}, {}, 10, 12)));
  EXPECT_DOUBLE_EQ(DecodeMs(/*load=*/270, /*inspect=*/40), 230);
}

TEST(BacklogGrew, NeedsTheLastQuarterAWholeIntervalLater) {
  const double interval_ms = 20;
  std::vector<double> steady(100, 0.3);
  EXPECT_FALSE(BacklogGrew(steady, interval_ms));
  // Jitter well inside one interval is not a backlog.
  std::vector<double> jitter = steady;
  for (size_t i = 75; i < 100; ++i) jitter[i] = 5;
  EXPECT_FALSE(BacklogGrew(jitter, interval_ms));
  // A generator falling behind by one request per request does.
  std::vector<double> growing;
  for (size_t i = 0; i < 100; ++i) growing.push_back(static_cast<double>(i));
  EXPECT_TRUE(BacklogGrew(growing, interval_ms));
  EXPECT_FALSE(BacklogGrew({}, interval_ms));
}

TEST(BodyCheck, IgnoresOnlyTheSecondsValues) {
  const std::string a = R"({"skyline":[1,2],"stats":{"seconds":0.0051,"x":1}})";
  const std::string b = R"({"skyline":[1,2],"stats":{"seconds":1.5e-05,"x":1}})";
  const std::string c = R"({"skyline":[1,3],"stats":{"seconds":0.0051,"x":1}})";
  EXPECT_EQ(HashModuloSeconds(a), HashModuloSeconds(b));
  EXPECT_NE(HashModuloSeconds(a), HashModuloSeconds(c));
  EXPECT_NE(HashModuloSeconds(a), HashModuloSeconds(a + "\n"));
  EXPECT_NE(HashModuloSeconds(a),
            HashModuloSeconds(R"({"skyline":[1,2],"stats":{"x":1}})"));
}

Span MakeSpan(std::string name, int64_t start, int64_t end, int64_t parent) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      MakeSpan("bench.read", 0, 100, -1),
      MakeSpan("server.parse", 10, 30, 0),
      MakeSpan("core.execute", 20, 50, 0),   // overlaps parse
      MakeSpan("server.serialize", 90, 120, 0),  // clipped at the parent
      MakeSpan("core.render", 60, 70, -1),   // another root
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);

  // Per tree: only the bench.read tree counts; core.render is its own root.
  const auto per_tree = SelfTimePerTreeUs(spans, {"bench.read"});
  EXPECT_DOUBLE_EQ(per_tree.at("bench"), 0.050);
  EXPECT_DOUBLE_EQ(per_tree.at("server"), 0.050);
  EXPECT_DOUBLE_EQ(per_tree.at("core"), 0.030);
}

TEST(Spans, SelfTimePerTreeAveragesOverTrees) {
  const std::vector<Span> spans = {
      MakeSpan("bench.read", 0, 1000, -1),
      MakeSpan("core.execute", 100, 900, 0),
      MakeSpan("bench.read", 1000, 4000, -1),
      MakeSpan("core.execute", 1000, 3800, 2),
      MakeSpan("server.handle_1", 0, 5000, -1),  // not a replay tree
  };
  const auto per_tree = SelfTimePerTreeUs(spans, {"bench.read"});
  EXPECT_DOUBLE_EQ(per_tree.at("core"), (0.8 + 2.8) / 2);
  EXPECT_DOUBLE_EQ(per_tree.at("bench"), (0.2 + 0.2) / 2);
  EXPECT_EQ(per_tree.count("server"), 0u);
}

TEST(Spans, NestedChildrenAreChargedOnlyToTheirParent) {
  const std::vector<Span> spans = {
      MakeSpan("bench.write", 0, 100, -1),
      MakeSpan("server.handle", 0, 80, 0),
      MakeSpan("core.apply_updates", 10, 70, 1),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 60);
}

TEST(Spans, RecorderKeepsParentsAndWritesChromeJson) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "bench.read", -1, 7);
    ScopedSpan child(&recorder, "core.execute", root.index(), 7);
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request_id, 7u);
  EXPECT_EQ(spans[1].layer(), "core");
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);

  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench_spans_test.json")
          .string();
  ASSERT_TRUE(recorder.WriteChromeJson(path).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = util::JsonParse(text.str());
  ASSERT_TRUE(doc.has_value());
  const util::JsonValue* events = doc->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[1].Find("ph")->str, "X");
  EXPECT_EQ(events->array[1].Find("args")->Find("parent")->number, 0);
  std::filesystem::remove(path);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

class InputsTest : public ::testing::Test {
 protected:
  std::string Dir(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("perfbench_inputs_" + name);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir.string();
  }
  void TearDown() override {
    for (const auto& d : dirs_) std::filesystem::remove_all(d);
  }
  static InputSpec Spec(uint64_t seed, bool snapshot) {
    InputSpec spec;
    spec.seed = seed;
    spec.snapshot = snapshot;
    return spec;
  }
  std::vector<std::filesystem::path> dirs_;
};

TEST_F(InputsTest, SameSeedWritesTheSameFiles) {
  const std::string a = Dir("a"), b = Dir("b");
  ASSERT_TRUE(GenerateInputs(Spec(7, true), a).ok());
  ASSERT_TRUE(GenerateInputs(Spec(7, true), b).ok());
  for (auto path : {GraphPath, BatchesPath}) {
    const std::string bytes = ReadFile(path(a));
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, ReadFile(path(b)));
  }
  // The snapshot's filter section records the filter phase's wall-clock
  // seconds, so only that section (and the content id) may differ.
  auto ma = persist::Inspect(SnapshotPath(a));
  auto mb = persist::Inspect(SnapshotPath(b));
  ASSERT_TRUE(ma.ok() && mb.ok());
  EXPECT_EQ(ma.value().file_bytes, mb.value().file_bytes);
  ASSERT_EQ(ma.value().sections.size(), mb.value().sections.size());
  for (size_t i = 0; i < ma.value().sections.size(); ++i) {
    const persist::SectionInfo& sa = ma.value().sections[i];
    const persist::SectionInfo& sb = mb.value().sections[i];
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_EQ(sa.offset, sb.offset);
    EXPECT_EQ(sa.bytes, sb.bytes);
    if (sa.name != "filter") {
      EXPECT_EQ(sa.crc32, sb.crc32) << sa.name;
    }
  }
}

TEST_F(InputsTest, OtherSeedRelabelsTheFileButLoadsTheSameGraph) {
  const std::string a = Dir("c"), b = Dir("d");
  ASSERT_TRUE(GenerateInputs(Spec(7, false), a).ok());
  ASSERT_TRUE(GenerateInputs(Spec(8, false), b).ok());
  EXPECT_NE(ReadFile(GraphPath(a)), ReadFile(GraphPath(b)));
  EXPECT_NE(ReadFile(BatchesPath(a)), ReadFile(BatchesPath(b)));
  auto ga = graph::LoadEdgeList(GraphPath(a));
  auto gb = graph::LoadEdgeList(GraphPath(b));
  ASSERT_TRUE(ga.ok() && gb.ok());
  ASSERT_EQ(ga.value().NumVertices(), gb.value().NumVertices());
  for (graph::VertexId u = 0; u < ga.value().NumVertices(); ++u) {
    const auto na = ga.value().Neighbors(u);
    const auto nb = gb.value().Neighbors(u);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST_F(InputsTest, EveryToggleTakesEffect) {
  const std::string dir = Dir("e");
  ASSERT_TRUE(GenerateInputs(Spec(3, false), dir).ok());
  auto g = graph::LoadEdgeList(GraphPath(dir));
  auto batches = ReadBatches(BatchesPath(dir));
  ASSERT_TRUE(g.ok() && batches.ok());
  ASSERT_EQ(batches.value().size(), kGeneratedBatches);
  EdgeSet edges(g.value());
  size_t inserts = 0;
  for (const Batch& batch : batches.value()) {
    ASSERT_EQ(batch.size(), kBatchSize);
    for (const auto& up : batch) inserts += up.insert;
    ASSERT_TRUE(edges.Apply(batch));
  }
  // Toggles are drawn half inserts, half deletes.
  const size_t toggles = kGeneratedBatches * kBatchSize;
  EXPECT_GT(inserts, toggles / 3);
  EXPECT_LT(inserts, toggles * 2 / 3);
}

util::JsonValue ParseFile(const std::string& path) {
  std::string error;
  auto doc = util::JsonParse(ReadFile(path), &error);
  EXPECT_TRUE(doc.has_value()) << path << ": " << error;
  return doc.value_or(util::JsonValue{});
}

// perfbench/workloads.json records each workload; it must describe what
// the benchmark actually runs.
TEST(Records, WorkloadsJsonMatchesTheBenchmark) {
  const util::JsonValue doc = ParseFile(PERFBENCH_DIR "/workloads.json");
  const util::JsonValue* list = doc.Find("workloads");
  ASSERT_TRUE(list != nullptr && list->is_array());
  ASSERT_EQ(list->array.size(), Workloads().size());
  for (const util::JsonValue& rec : list->array) {
    const WorkloadSpec* w = FindWorkload(rec.Find("name")->str);
    ASSERT_NE(w, nullptr) << rec.Find("name")->str;
    const util::JsonValue* g = rec.Find("graph");
    EXPECT_EQ(g->Find("standin")->str, w->standin);
    EXPECT_EQ(rec.Find("closed_loop_readers")->number, w->readers);
    const util::JsonValue* open = rec.Find("open_loop");
    if (w->op == OpenLoopOp::kNone) {
      EXPECT_TRUE(open->is_null());
    } else {
      EXPECT_EQ(open->Find("rate_per_s")->number, w->op_rate_per_s);
    }
    if (w->op == OpenLoopOp::kMutate) {
      EXPECT_EQ(open->Find("batch_size")->number, kBatchSize);
    }
    EXPECT_EQ(rec.Find("snapshot")->is_null(), !w->from_snapshot);

    auto standin = datasets::MakeStandin(w->standin);
    ASSERT_TRUE(standin.ok());
    EXPECT_EQ(g->Find("n")->number, standin.value().NumVertices());
    EXPECT_EQ(g->Find("m")->number, standin.value().NumEdges());
  }
}

// Every per-layer metric of BENCHMARK.json has an entry in the interaction
// map, and every entry names real end-to-end metrics and workloads.
TEST(Records, InteractionMapCoversEveryPerLayerMetric) {
  const util::JsonValue bench = ParseFile(PERFBENCH_DIR "/../BENCHMARK.json");
  const util::JsonValue map = ParseFile(PERFBENCH_DIR "/interaction_map.json");
  std::set<std::string> e2e, workloads, per_layer, mapped;
  for (const auto& m : bench.Find("end_to_end")->array) e2e.insert(m.Find("name")->str);
  // Also allowed: the result's failed count and the unbounded client-side
  // tails of the traced run.
  for (const char* name : {"failed", "gen.read_tail_ms", "gen.op_tail_ms"}) {
    e2e.insert(name);
  }
  for (const auto& w : bench.Find("workloads")->array) workloads.insert(w.Find("name")->str);
  for (const auto& m : bench.Find("per_layer")->array) per_layer.insert(m.Find("name")->str);
  for (const WorkloadSpec& w : Workloads()) EXPECT_TRUE(workloads.count(w.name)) << w.name;
  for (const auto& entry : map.Find("per_layer")->array) {
    const std::string name = entry.Find("metric")->str;
    mapped.insert(name);
    EXPECT_TRUE(per_layer.count(name)) << name;
    for (const char* key : {"moves", "should_not_move"}) {
      for (const auto& pair : entry.Find(key)->array) {
        EXPECT_TRUE(e2e.count(pair.Find("metric")->str))
            << name << " " << key << " " << pair.Find("metric")->str;
        EXPECT_TRUE(workloads.count(pair.Find("workload")->str))
            << name << " " << key << " " << pair.Find("workload")->str;
      }
    }
  }
  EXPECT_EQ(mapped, per_layer);
}

}  // namespace
}  // namespace nsky::perfbench
