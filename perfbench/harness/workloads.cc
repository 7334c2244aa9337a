#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "body_check.h"
#include "core/engine.h"
#include "core/skyline_json.h"
#include "core/solver.h"
#include "graph/io.h"
#include "graph/versioned_graph.h"
#include "inputs.h"
#include "persist/snapshot.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"
#include "server/service.h"
#include "spans.h"
#include "stats.h"
#include "util/json_writer.h"
#include "util/memory.h"
#include "util/timer.h"

namespace nsky::perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"skyline_read", "notredame", 4, OpenLoopOp::kNone, 0, false},
      {"skyline_mutate", "notredame", 1, OpenLoopOp::kMutate, 50, false},
      {"snapshot_reload", "notredame", 1, OpenLoopOp::kReload, 2, true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kReadTarget[] = "/v1/skyline?algo=filter-refine&threads=1";
// Set-ups per run: the last of the first kSetupsBeforeLoad serves the
// run's load; an untraced run sets up the rest after its load.
constexpr int kSetupRepeats = 15;
constexpr int kSetupsBeforeLoad = 8;
constexpr double kWarmupSeconds = 1.0;
constexpr uint32_t kSessionThreads = 4;
// Timed phases are summarized per window (stats.h); an open-loop window
// spans at least kMinOpsPerWindow scheduled requests.
constexpr double kWindowSeconds = 2.0;
constexpr double kMinOpsPerWindow = 100;
// The traced load alternates traced and untraced windows of this length.
constexpr double kTraceWindowSeconds = 1.0;
// Reads of skyline_mutate checked against a cold solve of their epoch.
constexpr size_t kEpochSamples = 12;
// Traced-run shares of --seconds.
constexpr double kTracedLoadShare = 0.6;        // load, traced in even windows
constexpr double kHandleSingleShare = 0.05;     // one caller, Handle + socket
constexpr double kHandleConcurrentShare = 0.1;  // at workload concurrency
constexpr double kPipelineShare = 0.1;          // layer-by-layer replay
constexpr size_t kFileRepeats = 3;              // LoadEdgeList / Inspect / Load
constexpr size_t kCommitBatches = 200;          // VersionedGraph replay

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// The nsky.skyline.v1 body GET kReadTarget must answer for `g`: a cold
// core::Solve rendered through the server's own renderer.
std::string ReferenceBody(const graph::Graph& g) {
  core::SolverOptions options;
  options.algorithm = core::Algorithm::kFilterRefine;
  options.threads = 1;
  const core::SkylineResult result = core::Solve(g, options);
  core::SkylineDocOptions doc;
  doc.algorithm = "filter-refine";
  doc.engine = true;
  return core::SkylineDocToJson(g, result, doc) + "\n";
}

std::string GetRequestBytes() {
  return std::string("GET ") + kReadTarget +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string PostRequestBytes(const std::string& target,
                             const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string MutateRequestBytes(const Batch& batch) {
  util::JsonWriter w;
  w.BeginObject();
  w.Key("updates");
  w.BeginArray();
  for (const graph::EdgeUpdate& up : batch) {
    w.BeginObject();
    w.KV("u", static_cast<uint64_t>(up.u));
    w.KV("v", static_cast<uint64_t>(up.v));
    w.KV("op", up.insert ? "insert" : "delete");
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return PostRequestBytes("/v1/edges", std::move(w).Take());
}

server::HttpRequest Parse(const std::string& bytes) {
  server::HttpParser parser;
  parser.Feed(bytes);
  return parser.request();
}

// One in-process server on an ephemeral loopback port.
class ServedStack {
 public:
  explicit ServedStack(std::unique_ptr<server::SkylineService> service)
      : service_(std::move(service)) {}
  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;
  ~ServedStack() {
    if (serve_.joinable()) {
      server_->Shutdown();
      serve_.join();
    }
  }

  util::Status Start() {
    server::ServerOptions options;
    options.session_threads = kSessionThreads;
    server_ = std::make_unique<server::Server>(service_.get(), options);
    if (util::Status s = server_->Listen(); !s.ok()) return s;
    serve_ = std::thread([this] { server_->Serve(); });
    return util::Status::Ok();
  }
  uint16_t port() const { return server_->port(); }
  server::SkylineService& service() { return *service_; }

 private:
  std::unique_ptr<server::SkylineService> service_;
  std::unique_ptr<server::Server> server_;
  std::thread serve_;
};

// skyline_mutate's reader reads every epoch at most once: after a read
// that saw epoch E it waits for the writer's ack of a later epoch, so a
// cache of answers keyed by epoch never serves one of its reads.
class EpochGate {
 public:
  void Acked(uint64_t epoch) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      acked_ = std::max(acked_, epoch);
    }
    cv_.notify_all();
  }
  // Waits until an epoch after `epoch` is acknowledged or `deadline` passes.
  void WaitPast(uint64_t epoch, Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] { return acked_ > epoch; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t acked_ = 0;
};

// Everything generated before set-up, plus the mutable state the open-loop
// writer advances.
struct Context {
  const WorkloadSpec* w = nullptr;
  std::string dir;
  graph::Graph graph;  // graph.txt as LoadEdgeList reads it
  uint64_t reference_hash = 0;  // HashModuloSeconds of the reference body
  std::vector<Batch> batches;
  std::vector<std::string> mutate_requests;  // rendered batches
  std::string reload_request;
  std::string snapshot_id;
  size_t next_batch = 0;  // == the served epoch on skyline_mutate
  EpochGate epochs;       // skyline_mutate: the epochs acknowledged so far
  std::atomic<uint64_t> next_request_id{1};
};

// Successful reads are sampled with their completion time; failures only
// count.
struct ReadLog {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion, from the phase start
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  std::vector<std::pair<uint64_t, uint64_t>> epoch_hashes;  // skyline_mutate

  void Merge(ReadLog&& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    epoch_hashes.insert(epoch_hashes.end(), o.epoch_hashes.begin(),
                        o.epoch_hashes.end());
  }
};

struct OpLog {
  std::vector<double> latency_ms;  // due time to ack, acknowledged requests
  std::vector<double> due_s;       // their due times, from the phase start
  std::vector<double> lag_ms;      // due time to send, every request
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
};

struct LoadPhase {
  ReadLog reads;
  OpLog ops;
};

// Checks one read answer; skyline_mutate reads are recorded with their
// epoch and checked off the clock.
bool RecordRead(const Context& ctx, const util::Result<server::ClientResponse>& r,
                ReadLog* log) {
  ++log->attempted;
  if (!r.ok()) {
    ++log->failed;
    return false;
  }
  const server::ClientResponse& resp = r.value();
  if (resp.status != 200) {
    if (resp.status == 429) ++log->shed;
    ++log->failed;
    return false;
  }
  if (ctx.w->op == OpenLoopOp::kMutate) {
    auto it = resp.headers.find("x-nsky-epoch");
    if (it == resp.headers.end()) {
      ++log->failed;
      return false;
    }
    log->epoch_hashes.emplace_back(std::strtoull(it->second.c_str(), nullptr, 10),
                                   HashModuloSeconds(resp.body));
  } else if (HashModuloSeconds(resp.body) != ctx.reference_hash) {
    ++log->failed;
    return false;
  }
  return true;
}

// Checks an open-loop acknowledgement: a mutation must apply its whole
// batch as the next epoch; a reload must swap in the generated snapshot.
bool AckOk(const Context& ctx, int status, const std::string& body,
           size_t batch_index) {
  if (status != 200) return false;
  std::optional<util::JsonValue> doc = util::JsonParse(body);
  if (!doc.has_value()) return false;
  if (ctx.w->op == OpenLoopOp::kMutate) {
    const util::JsonValue* applied = doc->Find("applied");
    const util::JsonValue* epoch = doc->Find("epoch");
    return applied != nullptr && epoch != nullptr &&
           applied->number == static_cast<double>(kBatchSize) &&
           epoch->number == static_cast<double>(batch_index + 1);
  }
  const util::JsonValue* snapshot = doc->Find("snapshot");
  const util::JsonValue* id =
      snapshot != nullptr ? snapshot->Find("id") : nullptr;
  return id != nullptr && id->str == ctx.snapshot_id;
}

// The open-loop caller: request k is due at start + k / rate and is timed
// from its due time, so a stall also charges the requests it delayed.
// `send` issues request `k` and returns whether its ack passed the check.
template <typename Send>
void RunOpenLoop(const Context& ctx, Clock::time_point start,
                 Clock::time_point deadline, Send&& send, OpLog* log) {
  const double interval_s = 1.0 / ctx.w->op_rate_per_s;
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due = After(start, interval_s * static_cast<double>(k));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const int status = send(k);
    const Clock::time_point done = Clock::now();
    ++log->attempted;
    log->lag_ms.push_back(MsBetween(due, sent));
    if (status != 200) {
      ++log->failed;
      if (status == 429) ++log->shed;
      continue;
    }
    log->latency_ms.push_back(MsBetween(due, done));
    log->due_s.push_back(MsBetween(start, due) / 1e3);
  }
}

// Drives the served stack over sockets for `seconds`: the workload's
// closed-loop readers plus its open-loop caller. With `spans`, the client
// round trips that start in the even kTraceWindowSeconds windows (as
// SummarizeWindows cuts them) are recorded as "bench.request" spans and
// the odd windows run untraced, so neighbouring windows give the tracing
// overhead.
LoadPhase DriveLoad(Context* ctx, ServedStack* stack, double seconds,
                    SpanRecorder* spans) {
  const WorkloadSpec& w = *ctx->w;
  const uint16_t port = stack->port();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = After(start, seconds);
  const double window_s =
      seconds / WindowCount(seconds, kTraceWindowSeconds);
  auto traced = [&](Clock::time_point t) {
    return spans != nullptr &&
           static_cast<int64_t>(MsBetween(start, t) / 1e3 / window_s) % 2 == 0;
  };
  std::vector<ReadLog> read_logs(static_cast<size_t>(w.readers));
  OpLog op_log;
  std::vector<std::thread> threads;
  for (int t = 0; t < w.readers; ++t) {
    threads.emplace_back([&, t] {
      server::HttpClient client(port);
      ReadLog& log = read_logs[static_cast<size_t>(t)];
      while (Clock::now() < deadline) {
        const uint64_t id = ctx->next_request_id.fetch_add(1);
        const Clock::time_point t0 = Clock::now();
        const bool trace = traced(t0);
        const int64_t span =
            trace ? spans->Begin("bench.request", -1, id, 1 + t) : -1;
        auto r = client.Get(kReadTarget);
        const Clock::time_point t1 = Clock::now();
        if (trace) spans->End(span);
        if (RecordRead(*ctx, r, &log)) {
          log.latency_ms.push_back(MsBetween(t0, t1));
          log.done_s.push_back(MsBetween(start, t1) / 1e3);
          if (w.op == OpenLoopOp::kMutate) {
            ctx->epochs.WaitPast(log.epoch_hashes.back().first, deadline);
          }
        }
      }
    });
  }
  if (w.op != OpenLoopOp::kNone) {
    threads.emplace_back([&] {
      server::HttpClient client(port);
      const size_t first_batch = ctx->next_batch;
      RunOpenLoop(
          *ctx, start, deadline,
          [&](uint64_t k) {
            const size_t batch = first_batch + k;
            const std::string& bytes = w.op == OpenLoopOp::kMutate
                                           ? ctx->mutate_requests.at(batch)
                                           : ctx->reload_request;
            const uint64_t id = ctx->next_request_id.fetch_add(1);
            const bool trace = traced(Clock::now());
            const int64_t span =
                trace ? spans->Begin("bench.request", -1, id, 0) : -1;
            auto r = client.Raw(bytes);
            if (trace) spans->End(span);
            if (w.op == OpenLoopOp::kMutate) ctx->next_batch = batch + 1;
            if (!r.ok()) return 0;
            if (!AckOk(*ctx, r.value().status, r.value().body, batch)) {
              return r.value().status == 200 ? 0 : r.value().status;
            }
            if (w.op == OpenLoopOp::kMutate) ctx->epochs.Acked(batch + 1);
            return 200;
          },
          &op_log);
    });
  }
  for (std::thread& t : threads) t.join();
  LoadPhase phase;
  for (ReadLog& log : read_logs) phase.reads.Merge(std::move(log));
  phase.ops = std::move(op_log);
  return phase;
}

// Set-up as a user pays it: from nothing to the first 200 -- the graph
// ingest (or snapshot restore), service construction, listen, and the
// cold first query.
util::Result<std::unique_ptr<ServedStack>> SetUp(const Context& ctx,
                                                 double* seconds) {
  util::Timer timer;
  server::ServiceOptions options;
  options.max_inflight = kSessionThreads;
  std::unique_ptr<server::SkylineService> service;
  if (ctx.w->from_snapshot) {
    auto engine = persist::Load(SnapshotPath(ctx.dir));
    if (!engine.ok()) return engine.status();
    service = std::make_unique<server::SkylineService>(
        std::move(engine).value(), options);
  } else {
    auto g = graph::LoadEdgeList(GraphPath(ctx.dir));
    if (!g.ok()) return g.status();
    service = std::make_unique<server::SkylineService>(std::move(g).value(),
                                                       options);
  }
  auto stack = std::make_unique<ServedStack>(std::move(service));
  if (util::Status s = stack->Start(); !s.ok()) return s;
  auto first = server::HttpGet(stack->port(), kReadTarget);
  *seconds = timer.Seconds();
  if (!first.ok()) return first.status();
  if (first.value().status != 200 ||
      HashModuloSeconds(first.value().body) != ctx.reference_hash) {
    return util::Status::InvalidArgument(
        "set-up: the first answer is not the reference body");
  }
  return stack;
}

// skyline_mutate's output checks, off the clock: reads of up to
// kEpochSamples evenly spaced epochs against a cold solve of that epoch,
// and the final epoch against the benchmark's replay of the edge set.
// Returns the number of failed checks and counts the checks as attempted.
uint64_t CheckMutateReads(const Context& ctx, const ReadLog& reads,
                          const std::string& final_body, uint64_t* attempted,
                          std::vector<std::string>* problems,
                          std::string* summary) {
  std::vector<uint64_t> epochs;
  for (const auto& [epoch, hash] : reads.epoch_hashes) epochs.push_back(epoch);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  std::vector<uint64_t> sampled;
  for (size_t i = 0; i < kEpochSamples && !epochs.empty(); ++i) {
    sampled.push_back(epochs[i * (epochs.size() - 1) /
                             std::max<size_t>(1, kEpochSamples - 1)]);
  }
  sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());

  EdgeSet edges(ctx.graph);
  size_t applied = 0;
  auto advance_to = [&](uint64_t epoch) {
    for (; applied < epoch; ++applied) edges.Apply(ctx.batches.at(applied));
  };
  uint64_t failed = 0;
  size_t reads_checked = 0;
  for (uint64_t epoch : sampled) {
    if (epoch > ctx.next_batch) {
      problems->push_back("read reports epoch " + std::to_string(epoch) +
                          " beyond the " + std::to_string(ctx.next_batch) +
                          " batches sent");
      ++failed;
      continue;
    }
    advance_to(epoch);
    const uint64_t want = HashModuloSeconds(ReferenceBody(edges.ToGraph()));
    for (const auto& [e, hash] : reads.epoch_hashes) {
      if (e != epoch) continue;
      ++reads_checked;
      if (hash != want) {
        ++failed;
        problems->push_back("read at epoch " + std::to_string(epoch) +
                            " differs from a cold solve of that epoch");
      }
    }
  }
  advance_to(ctx.next_batch);
  ++*attempted;
  if (HashModuloSeconds(final_body) !=
      HashModuloSeconds(ReferenceBody(edges.ToGraph()))) {
    ++failed;
    problems->push_back("final epoch " + std::to_string(ctx.next_batch) +
                        " differs from the replayed edge set");
  }
  const size_t reads_total = reads.epoch_hashes.size();
  *summary = std::to_string(reads_total) + " reads over " +
             std::to_string(epochs.size()) + " distinct epochs (" +
             Fixed(epochs.empty() ? 0.0
                                  : static_cast<double>(reads_total) /
                                        static_cast<double>(epochs.size())) +
             " reads per epoch read) of " + std::to_string(ctx.next_batch) +
             " committed; checked " + std::to_string(reads_checked) +
             " reads at " + std::to_string(sampled.size()) +
             " sampled epochs, plus the final epoch";
  return failed;
}

Metric Ms(std::string name, double value, std::string note = "") {
  return Metric{std::move(name), value, "ms", std::move(note)};
}

WindowedSummary ReadSummary(const LoadPhase& p, double seconds) {
  return SummarizeWindows(p.reads.done_s, p.reads.latency_ms, seconds,
                          kWindowSeconds);
}

// The workload's primary request: the read on skyline_read, else the
// open-loop request.
WindowedSummary OpSummary(const WorkloadSpec& w, const LoadPhase& p,
                          double seconds) {
  if (w.op == OpenLoopOp::kNone) return ReadSummary(p, seconds);
  return SummarizeWindows(
      p.ops.due_s, p.ops.latency_ms, seconds,
      std::max(kWindowSeconds, kMinOpsPerWindow / w.op_rate_per_s));
}

std::string WindowNote(const WindowedSummary& s) {
  return "median of " + std::to_string(s.windows) + " windows, >= " +
         std::to_string(s.min_window_samples) + " samples each";
}

// ---------------------------------------------------------------------------
// Traced run: layer replay.

double MedianOrZero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v);
}

double TailOrZero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : TailPercentile(v).value;
}

struct ReadTreeFacts {
  uint64_t body_bytes = 0;
  core::SkylineStats stats;
};

// One read, rebuilt from the public calls the server makes for it:
// parse -> Execute -> SkylineDocToJson -> SerializeResponse.
bool ReplayRead(SpanRecorder* spans, uint64_t id, core::Engine* engine,
                const std::string& get_bytes, const uint64_t* reference_hash,
                ReadTreeFacts* facts) {
  ScopedSpan root(spans, "bench.read", -1, id);
  {
    ScopedSpan s(spans, "server.parse", root.index(), id);
    server::HttpParser parser;
    parser.Feed(get_bytes);
  }
  core::QueryRequest query;
  query.options.algorithm = core::Algorithm::kFilterRefine;
  query.options.threads = 1;
  query.include_dominators = false;
  core::QueryResponse response;
  {
    ScopedSpan s(spans, "core.execute", root.index(), id);
    engine->Execute(query, &response);
  }
  std::string body;
  {
    ScopedSpan s(spans, "core.render", root.index(), id);
    core::SkylineDocOptions doc;
    doc.algorithm = "filter-refine";
    doc.engine = true;
    body = core::SkylineDocToJson(engine->graph(), response.result, doc,
                                  engine) +
           "\n";
  }
  {
    ScopedSpan s(spans, "server.serialize", root.index(), id);
    std::string wire = server::SerializeResponse(200, "application/json",
                                                 body, true);
    (void)wire;
  }
  facts->body_bytes = body.size();
  facts->stats = response.result.stats;
  return response.ok() && (reference_hash == nullptr ||
                           HashModuloSeconds(body) == *reference_hash);
}

// persist::Load under a span that ends before the engine is destroyed.
bool TimedLoad(SpanRecorder* spans, int64_t parent, uint64_t id,
               const std::string& path) {
  std::optional<util::Result<std::unique_ptr<core::Engine>>> loaded;
  {
    ScopedSpan s(spans, "persist.load", parent, id);
    loaded = persist::Load(path);
  }
  return loaded->ok();
}

struct EngineCounters {
  double queries_served = 0;
  double cold_queries = 0;
  double workspace_allocation_events = 0;  // of the threads=1 workspace
};

// The served engine's counters, read through GET /v1/engine_stats: the
// route renders Engine::StatsSnapshot under the serving cell's lock.
EngineCounters ReadEngineCounters(server::SkylineService* service) {
  EngineCounters c;
  const server::HttpResponse r = service->Handle(
      Parse("GET /v1/engine_stats HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"));
  const std::optional<util::JsonValue> doc = util::JsonParse(r.body);
  if (!doc.has_value()) return c;
  auto number = [](const util::JsonValue* v) {
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  c.queries_served = number(doc->Find("queries_served"));
  c.cold_queries = number(doc->Find("cold_queries"));
  if (const util::JsonValue* ws = doc->Find("workspaces");
      ws != nullptr && ws->is_array()) {
    for (const util::JsonValue& entry : ws->array) {
      if (number(entry.Find("threads")) == 1) {
        c.workspace_allocation_events = number(entry.Find("allocation_events"));
      }
    }
  }
  return c;
}

// Counts a load phase's requests and flags a growing open-loop backlog.
void CountPhase(const WorkloadSpec& w, const LoadPhase& p, RunResult* result) {
  result->attempted += p.reads.attempted + p.ops.attempted;
  result->failed += p.reads.failed + p.ops.failed;
  if (w.op != OpenLoopOp::kNone &&
      BacklogGrew(p.ops.lag_ms, 1e3 / w.op_rate_per_s)) {
    result->problems.push_back(
        "open-loop backlog grew: the last quarter was sent more than one "
        "interval later than the first; the run is invalid");
  }
}

// skyline_mutate's output checks on `reads` and on a final read.
void CheckMutateOutputs(const Context& ctx, uint16_t port,
                        const ReadLog& reads, RunResult* result) {
  if (ctx.w->op != OpenLoopOp::kMutate) return;
  auto final_read = server::HttpGet(port, kReadTarget);
  if (!final_read.ok() || final_read.value().status != 200) {
    ++result->attempted;
    ++result->failed;
    result->problems.push_back("final read failed");
    return;
  }
  std::string summary;
  result->failed += CheckMutateReads(ctx, reads, final_read.value().body,
                                     &result->attempted, &result->problems,
                                     &summary);
  result->info.push_back(summary);
}

Metric Us(std::string name, double value) {
  return Metric{std::move(name), value, "us", ""};
}

Metric CountMetric(std::string name, double value) {
  return Metric{std::move(name), value, "count", ""};
}

Metric Share(std::string name, double part, double whole) {
  return Metric{std::move(name), whole > 0 ? part / whole : 0.0, "share", ""};
}

// The untraced run: the end-to-end metrics of BENCHMARK.json.
std::vector<Metric> MeasureEndToEnd(Context* ctx, ServedStack* stack,
                                    double seconds, RunResult* result) {
  const WorkloadSpec& w = *ctx->w;
  const LoadPhase p = DriveLoad(ctx, stack, seconds, nullptr);
  const double peak_rss_mb =
      static_cast<double>(util::ProcessPeakRssBytes()) / (1024.0 * 1024.0);
  CountPhase(w, p, result);
  CheckMutateOutputs(*ctx, stack->port(), p.reads, result);
  const WindowedSummary reads = ReadSummary(p, seconds);
  const WindowedSummary ops = OpSummary(w, p, seconds);
  const std::string op_what = w.op == OpenLoopOp::kNone ? "reads"
                              : w.op == OpenLoopOp::kMutate
                                  ? "writes, from due time to ack"
                                  : "reloads, from due time to ack";
  // The tails are reported but are not end-to-end metrics of
  // BENCHMARK.json: with one serving cell and unfair handoffs they swing
  // with the machine's other tenants far beyond any usable bound. The
  // traced run carries them as gen.read_tail_ms / gen.op_tail_ms.
  result->info.push_back("read tail " + Fixed(reads.tail) + " ms (" +
                         reads.tail_name + " per window), " + op_what +
                         " tail " + Fixed(ops.tail) + " ms (" +
                         ops.tail_name + " per window); not bounded");
  return {
      {"read_qps", reads.rate_per_s, "1/s",
       "successful reads by " + std::to_string(w.readers) +
           " closed-loop readers, " + WindowNote(reads)},
      Ms("read_p50_ms", reads.p50, WindowNote(reads)),
      Ms("op_p50_ms", ops.p50, op_what + ", " + WindowNote(ops)),
      {"peak_rss_mb", peak_rss_mb, "MB", "VmHWM after the timed phase"},
  };
}

// SkylineService::Handle in-process: the read with one caller, then at the
// workload's concurrency beside its open-loop request (Handle of the
// /v1/edges POST, or SkylineService::Reload). The one caller alternates
// the in-process call with the same read over the socket
// ("bench.round_trip_1"): with one caller neither waits in a queue, and
// each pair sees the same state of the machine, so the pair's difference
// is transport. Returns the 429 count.
uint64_t ReplayHandles(Context* ctx, ServedStack* stack, double single_s,
                       double concurrent_s, SpanRecorder* spans,
                       RunResult* result) {
  const WorkloadSpec& w = *ctx->w;
  server::SkylineService* service = &stack->service();
  const server::HttpRequest get_request = Parse(GetRequestBytes());
  server::HttpClient client(stack->port());
  const Clock::time_point single_end = After(Clock::now(), single_s);
  while (Clock::now() < single_end) {
    {
      ScopedSpan s(spans, "server.handle_1", -1, ctx->next_request_id++);
      ++result->attempted;
      if (service->Handle(get_request).status != 200) ++result->failed;
    }
    std::optional<util::Result<server::ClientResponse>> r;
    {
      ScopedSpan s(spans, "bench.round_trip_1", -1, ctx->next_request_id++);
      r = client.Get(kReadTarget);
    }
    ++result->attempted;
    // No write runs here, so skyline_mutate's reads all see one epoch,
    // which CheckMutateReads does not cover; only their status is checked.
    if (!r->ok() || r->value().status != 200 ||
        (w.op != OpenLoopOp::kMutate &&
         HashModuloSeconds(r->value().body) != ctx->reference_hash)) {
      ++result->failed;
    }
  }

  std::atomic<uint64_t> attempted{0}, failed{0}, shed{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(start, concurrent_s);
  std::vector<std::thread> threads;
  for (int t = 0; t < w.readers; ++t) {
    threads.emplace_back([&, t] {
      while (Clock::now() < end) {
        server::HttpResponse r;
        {
          ScopedSpan s(spans, "server.handle", -1, ctx->next_request_id++,
                       1 + t);
          r = service->Handle(get_request);
        }
        ++attempted;
        if (r.status == 429) ++shed;
        if (r.status != 200) {
          ++failed;
        } else if (w.op != OpenLoopOp::kMutate) {
          if (HashModuloSeconds(r.body) != ctx->reference_hash) ++failed;
        } else {
          // skyline_mutate's reads race its writes and are not checked
          // here; the reader keeps to one read per epoch as over sockets.
          for (const auto& [key, value] : r.headers) {
            if (key == "X-Nsky-Epoch") {
              ctx->epochs.WaitPast(std::strtoull(value.c_str(), nullptr, 10),
                                   end);
            }
          }
        }
      }
    });
  }
  OpLog op_log;
  if (w.op != OpenLoopOp::kNone) {
    threads.emplace_back([&] {
      RunOpenLoop(
          *ctx, start, end,
          [&](uint64_t) {
            const uint64_t id = ctx->next_request_id++;
            if (w.op == OpenLoopOp::kReload) {
              ScopedSpan s(spans, "server.reload", -1, id);
              auto info = service->Reload(SnapshotPath(ctx->dir));
              return info.ok() && info.value().id == ctx->snapshot_id ? 200 : 0;
            }
            const size_t batch = ctx->next_batch++;
            server::HttpResponse r;
            {
              ScopedSpan s(spans, "server.handle_write", -1, id);
              r = service->Handle(Parse(ctx->mutate_requests.at(batch)));
            }
            if (!AckOk(*ctx, r.status, r.body, batch)) return 0;
            ctx->epochs.Acked(batch + 1);
            return 200;
          },
          &op_log);
    });
  }
  for (std::thread& t : threads) t.join();
  result->attempted += attempted + op_log.attempted;
  result->failed += failed + op_log.failed;
  return shed;
}

struct PipelineFacts {
  ReadTreeFacts read;
  std::vector<double> dirty;  // MutationResult.dirty_vertices per write
  uint64_t repaired = 0;
};

// The workload's operations rebuilt from layer calls, one after another for
// `seconds` (at least 3 rounds), on a benchmark-owned engine set up like the
// served one (restored from the snapshot on snapshot_reload, else built on
// the graph and warmed): reads; skyline_mutate alternates writes and reads;
// snapshot_reload starts with 3 reloads (parse + persist::Load).
PipelineFacts ReplayPipeline(Context* ctx, double seconds, SpanRecorder* spans,
                             RunResult* result) {
  const WorkloadSpec& w = *ctx->w;
  const std::string get_bytes = GetRequestBytes();
  const uint64_t* reference_hash =
      w.op == OpenLoopOp::kMutate ? nullptr : &ctx->reference_hash;
  std::unique_ptr<core::Engine> engine;
  if (w.from_snapshot) {
    auto loaded = persist::Load(SnapshotPath(ctx->dir));
    if (loaded.ok()) engine = std::move(loaded).value();
  } else {
    engine = std::make_unique<core::Engine>(ctx->graph);
    engine->Query();
  }
  PipelineFacts facts;
  if (!engine) {
    ++result->attempted;
    ++result->failed;
    result->problems.push_back("layer replay: cannot load the snapshot");
    return facts;
  }
  const Clock::time_point end = After(Clock::now(), seconds);
  for (size_t i = 0; Clock::now() < end || i < 3; ++i) {
    const uint64_t id = ctx->next_request_id++;
    if (w.op == OpenLoopOp::kMutate) {
      ScopedSpan root(spans, "bench.write", -1, id);
      {
        ScopedSpan s(spans, "server.parse", root.index(), id);
        server::HttpParser parser;
        parser.Feed(ctx->mutate_requests.at(i));
      }
      core::Engine::MutationResult r;
      {
        ScopedSpan s(spans, "core.apply_updates", root.index(), id);
        r = engine->ApplyUpdates(ctx->batches.at(i));
      }
      facts.dirty.push_back(static_cast<double>(r.dirty_vertices));
      if (r.repaired) ++facts.repaired;
      ++result->attempted;
      if (r.applied != kBatchSize) ++result->failed;
    } else if (w.op == OpenLoopOp::kReload && i < kFileRepeats) {
      ScopedSpan root(spans, "bench.reload", -1, id);
      {
        ScopedSpan s(spans, "server.parse", root.index(), id);
        server::HttpParser parser;
        parser.Feed(ctx->reload_request);
      }
      ++result->attempted;
      if (!TimedLoad(spans, root.index(), id, SnapshotPath(ctx->dir))) {
        ++result->failed;
      }
    }
    ++result->attempted;
    if (!ReplayRead(spans, ctx->next_request_id++, engine.get(), get_bytes,
                    reference_hash, &facts.read)) {
      ++result->failed;
    }
  }
  return facts;
}

// The graph and persist calls outside the request path: Stage + Commit on
// a standalone VersionedGraph (skyline_mutate), and the workload's file
// loads -- LoadEdgeList, or Inspect + Load of the snapshot. Returns the
// snapshot's size (0 without one).
uint64_t ReplayFiles(Context* ctx, SpanRecorder* spans, RunResult* result) {
  const WorkloadSpec& w = *ctx->w;
  if (w.op == OpenLoopOp::kMutate) {
    graph::VersionedGraph vg(ctx->graph);
    for (size_t i = 0; i < kCommitBatches; ++i) {
      ScopedSpan s(spans, "graph.commit", -1, ctx->next_request_id++);
      for (const graph::EdgeUpdate& up : ctx->batches.at(i)) vg.Stage(up);
      vg.Commit();
    }
  }
  uint64_t file_bytes = 0;
  for (size_t i = 0; i < kFileRepeats; ++i) {
    const uint64_t id = ctx->next_request_id++;
    ++result->attempted;
    if (w.from_snapshot) {
      {
        ScopedSpan s(spans, "persist.inspect", -1, id);
        auto manifest = persist::Inspect(SnapshotPath(ctx->dir));
        if (manifest.ok()) file_bytes = manifest.value().file_bytes;
      }
      if (!TimedLoad(spans, -1, id, SnapshotPath(ctx->dir))) ++result->failed;
    } else {
      std::optional<util::Result<graph::Graph>> loaded;
      {
        ScopedSpan s(spans, "graph.ingest", -1, id);
        loaded = graph::LoadEdgeList(GraphPath(ctx->dir));
      }
      if (!loaded->ok()) ++result->failed;
    }
  }
  return file_bytes;
}

// The traced run: the load with client spans in alternate windows, then
// the layer replay; returns the per-layer metrics of BENCHMARK.json.
std::vector<Metric> MeasureLayers(Context* ctx, ServedStack* stack,
                                  const RunOptions& options,
                                  RunResult* result) {
  const WorkloadSpec& w = *ctx->w;
  SpanRecorder spans;
  server::SkylineService& service = stack->service();
  // snapshot_reload swaps engines under the counters, so their deltas are
  // only meaningful on the other workloads.
  const bool same_engine = w.op != OpenLoopOp::kReload;
  const double phase_s = options.seconds * kTracedLoadShare;
  const EngineCounters before = ReadEngineCounters(&service);
  const LoadPhase load = DriveLoad(ctx, stack, phase_s, &spans);
  const EngineCounters after = ReadEngineCounters(&service);
  CountPhase(w, load, result);

  const uint64_t handle_shed =
      ReplayHandles(ctx, stack, options.seconds * kHandleSingleShare,
                    options.seconds * kHandleConcurrentShare, &spans, result);
  const PipelineFacts pipeline = ReplayPipeline(
      ctx, options.seconds * kPipelineShare, &spans, result);
  const uint64_t file_bytes = ReplayFiles(ctx, &spans, result);
  CheckMutateOutputs(*ctx, stack->port(), load.reads, result);
  if (!options.trace_out.empty()) {
    if (util::Status s = spans.WriteChromeJson(options.trace_out); !s.ok()) {
      result->problems.push_back("trace: " + s.ToString());
    }
  }

  const std::vector<Span> all = spans.spans();
  auto median_us = [&](const char* name, const char* parent = "") {
    return MedianOrZero(DurationsUs(all, name, parent));
  };
  auto tail_us = [&](const char* name) {
    return TailOrZero(DurationsUs(all, name));
  };
  // Queueing is read from means: the cell's mutex is not fair, so at
  // concurrency one caller can re-acquire it back to back while the others
  // starve, and the median call then shows no wait at all. The mean counts
  // every caller's wait (Little's law).
  auto mean_us = [&](const char* name) {
    const std::vector<double> v = DurationsUs(all, name);
    return v.empty() ? 0.0 : Mean(v);
  };
  const double handle_mean_us = mean_us("server.handle");
  const double serialize_us = median_us("server.serialize");
  const double execute_us = median_us("core.execute");
  const double load_ms = median_us("persist.load") / 1e3;
  const double inspect_ms = median_us("persist.inspect") / 1e3;
  const WindowedSummary reads = ReadSummary(load, phase_s);
  const WindowedSummary ops = OpSummary(w, load, phase_s);
  const std::vector<double> toggled_p50s =
      SummarizeWindows(load.reads.done_s, load.reads.latency_ms, phase_s,
                       kTraceWindowSeconds)
          .window_p50s;
  const core::SkylineStats& stats = pipeline.read.stats;
  const double elements = static_cast<double>(stats.nbr_elements_scanned);

  std::vector<Metric> m = {
      Us("server.parse_us", median_us("server.parse")),
      Us("server.handle_us", median_us("server.handle")),
      Us("server.handle_p99_us", tail_us("server.handle")),
      Us("server.queue_wait_us",
         QueueWaitUs(handle_mean_us, mean_us("server.handle_1"))),
      Us("server.serialize_us", serialize_us),
      Us("server.transport_us",
         TransportUs(DurationsUs(all, "bench.round_trip_1"),
                     DurationsUs(all, "server.handle_1"),
                     median_us("server.parse", "bench.read"), serialize_us)),
      Ms("server.reload_ms", median_us("server.reload") / 1e3),
      Share("server.shed_share",
            static_cast<double>(load.reads.shed + load.ops.shed + handle_shed),
            static_cast<double>(load.reads.attempted + load.ops.attempted)),
      Us("core.execute_us", execute_us),
      Us("core.execute_p99_us", tail_us("core.execute")),
      Us("core.render_us", median_us("core.render")),
      {"core.body_bytes", static_cast<double>(pipeline.read.body_bytes),
       "bytes", ""},
      CountMetric("core.inclusion_tests", static_cast<double>(stats.inclusion_tests)),
      CountMetric("core.nbr_elements_scanned", elements),
      {"core.ns_per_element", elements > 0 ? execute_us * 1e3 / elements : 0.0,
       "ns", ""},
      Us("core.apply_updates_us", median_us("core.apply_updates")),
      Us("core.apply_updates_p99_us", tail_us("core.apply_updates")),
      CountMetric("core.dirty_vertices",
            pipeline.dirty.empty() ? 0.0 : Mean(pipeline.dirty)),
      Share("core.repair_share", static_cast<double>(pipeline.repaired),
            static_cast<double>(pipeline.dirty.size())),
      Share("core.cold_query_share",
            same_engine ? after.cold_queries - before.cold_queries : 0.0,
            after.queries_served - before.queries_served),
      CountMetric("core.workspace_alloc_events",
                  same_engine ? after.workspace_allocation_events -
                                    before.workspace_allocation_events
                              : 0.0),
      Us("graph.commit_us", median_us("graph.commit")),
      Ms("graph.ingest_ms", median_us("graph.ingest") / 1e3),
      Ms("persist.load_ms", load_ms),
      Ms("persist.inspect_ms", inspect_ms),
      Ms("persist.decode_ms",
         w.from_snapshot ? DecodeMs(load_ms, inspect_ms) : 0.0),
      {"persist.load_mb_per_s",
       load_ms > 0 ? static_cast<double>(file_bytes) / 1e6 / (load_ms / 1e3)
                   : 0.0,
       "MB/s", ""},
      {"persist.file_bytes", static_cast<double>(file_bytes), "bytes", ""},
      Ms("gen.lag_ms",
         w.op == OpenLoopOp::kNone ? 0.0 : MedianOrZero(load.ops.lag_ms)),
      Ms("gen.read_tail_ms", reads.tail, reads.tail_name + " per window"),
      Ms("gen.op_tail_ms", ops.tail, ops.tail_name + " per window"),
      Ms("trace.overhead_ms", TracedMinusUntraced(toggled_p50s),
         "read p50 of traced windows minus their untraced neighbour's"),
  };
  // Self time per layer, per operation rebuilt from layer calls.
  const std::map<std::string, double> self = SelfTimePerTreeUs(
      all, {"bench.read", "bench.write", "bench.reload"});
  for (const char* layer : {"bench", "server", "core", "persist"}) {
    auto it = self.find(layer);
    m.push_back(Us(std::string("self.") + layer + "_us",
                   it == self.end() ? 0.0 : it->second));
  }
  return m;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  RunResult result;
  auto fail = [&](const std::string& why) {
    result.problems.push_back(why);
    return result;
  };
  Context ctx;
  ctx.w = options.workload;
  ctx.dir = options.input_dir;
  const WorkloadSpec& w = *ctx.w;

  // Inputs and references, before any timing.
  auto g = graph::LoadEdgeList(GraphPath(ctx.dir));
  if (!g.ok()) return fail("inputs: " + g.status().ToString());
  ctx.graph = std::move(g).value();
  ctx.reference_hash = HashModuloSeconds(ReferenceBody(ctx.graph));
  auto batches = ReadBatches(BatchesPath(ctx.dir));
  if (!batches.ok()) return fail("inputs: " + batches.status().ToString());
  ctx.batches = std::move(batches).value();
  for (const Batch& b : ctx.batches) {
    ctx.mutate_requests.push_back(MutateRequestBytes(b));
  }
  if (w.from_snapshot) {
    auto id = persist::PeekSnapshotId(SnapshotPath(ctx.dir));
    if (!id.ok()) return fail("inputs: " + id.status().ToString());
    ctx.snapshot_id = id.value();
    ctx.reload_request = PostRequestBytes(
        "/v1/admin/reload?snapshot=" + SnapshotPath(ctx.dir), "");
  }
  result.info.push_back("graph " + std::string(w.standin) + " n=" +
                        std::to_string(ctx.graph.NumVertices()) +
                        " m=" + std::to_string(ctx.graph.NumEdges()));

  // Set-up, several times; the last one before the load serves it. The
  // untraced run sets up again after the load, so its median samples the
  // machine at both ends of the run.
  std::vector<double> setup_s;
  std::unique_ptr<ServedStack> stack;
  auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      stack.reset();
      double seconds = 0;
      auto s = SetUp(ctx, &seconds);
      if (!s.ok()) return s.status();
      stack = std::move(s).value();
      setup_s.push_back(seconds);
    }
    return util::Status::Ok();
  };
  if (util::Status s = set_up(kSetupsBeforeLoad); !s.ok()) {
    return fail("set-up: " + s.ToString());
  }
  // Warm-up: its requests are checked and counted but not measured.
  CountPhase(w, DriveLoad(&ctx, stack.get(), kWarmupSeconds, nullptr),
             &result);

  if (options.trace) {
    result.metrics = MeasureLayers(&ctx, stack.get(), options, &result);
  } else {
    result.metrics =
        MeasureEndToEnd(&ctx, stack.get(), options.seconds, &result);
    if (util::Status s = set_up(kSetupRepeats - kSetupsBeforeLoad); !s.ok()) {
      return fail("set-up: " + s.ToString());
    }
    result.metrics.push_back(
        {"setup_s", Median(setup_s), "s",
         "median of " + std::to_string(setup_s.size()) +
             " set-ups, before and after the load"});
  }
  if (result.failed > 0) {
    result.problems.push_back(std::to_string(result.failed) + " of " +
                              std::to_string(result.attempted) +
                              " requests failed or failed a check");
  }
  result.correct = result.problems.empty();
  return result;
}

}  // namespace nsky::perfbench
