// The serving benchmark's workloads: one in-process nsky server, driven
// over loopback sockets by closed-loop readers and an open-loop writer or
// reload caller, with every response checked.
//
// A run with tracing off reports the end-to-end metrics. A traced run
// repeats the load with and without client spans (their difference is the
// tracing overhead) and then replays the workload's requests through each
// layer's public functions -- HttpParser::Feed, SkylineService::Handle,
// Engine::Execute, SkylineDocToJson, SerializeResponse,
// Engine::ApplyUpdates, VersionedGraph::Stage/Commit, LoadEdgeList,
// persist::Load/Inspect, SkylineService::Reload -- under spans, and
// reports the per-layer metrics.
#ifndef NSKY_PERFBENCH_HARNESS_WORKLOADS_H_
#define NSKY_PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace nsky::perfbench {

// What a workload sends besides its closed-loop reads.
enum class OpenLoopOp { kNone, kMutate, kReload };

struct WorkloadSpec {
  const char* name;
  const char* standin;  // Table-1 stand-in served, at full scale
  int readers;          // closed-loop GET /v1/skyline callers
  OpenLoopOp op;        // the open-loop caller's request, if any
  double op_rate_per_s;  // its schedule
  bool from_snapshot;   // set-up restores the engine with persist::Load
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string input_dir;  // from `perfbench gen`
  std::string trace_out;  // Chrome trace of the traced run ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // e.g. which percentile a tail metric is
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;      // input sizes and check coverage
  std::vector<std::string> problems;  // why `correct` is false
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace nsky::perfbench

#endif  // NSKY_PERFBENCH_HARNESS_WORKLOADS_H_
