#include "util/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace nsky::util::trace {

namespace {

using Clock = std::chrono::steady_clock;
static_assert(Clock::is_steady,
              "span durations must be measured on a monotonic clock");

std::atomic<bool> g_enabled{false};

// An open (not yet closed) span on a thread's stack.
struct OpenSpan {
  SpanNode node;
  Clock::time_point start;
  std::vector<uint64_t> counters_at_start;
  double children_dur_us = 0.0;
  // Reset() bumps the generation; spans opened before it are dropped when
  // they close instead of being attached to the new trace.
  uint64_t generation = 0;
};

// State shared by every thread; guarded by mu (generation is additionally
// atomic so Span close can check staleness cheaply).
struct SharedTracer {
  std::mutex mu;
  Clock::time_point epoch = Clock::now();
  bool epoch_set = false;
  std::atomic<uint64_t> generation{0};
  std::atomic<uint32_t> next_tid{1};
  std::vector<SpanNode> roots;
};

SharedTracer& shared() {
  static SharedTracer* t = new SharedTracer();  // never destroyed
  return *t;
}

// Per-thread span stack plus scratch for counter sampling. Nesting is a
// per-thread notion: worker spans never become children of another thread's
// open span.
struct ThreadTracer {
  uint32_t tid = 0;  // assigned on first span
  std::vector<OpenSpan> stack;
  std::vector<uint64_t> sample;
};

ThreadTracer& thread_tracer() {
  thread_local ThreadTracer t;
  return t;
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void EmitEvents(const SpanNode& node, JsonWriter* w) {
  w->BeginObject();
  w->KV("name", node.name);
  w->KV("ph", "X");
  w->KV("ts", node.start_us);
  w->KV("dur", node.dur_us);
  w->KV("pid", static_cast<uint64_t>(1));
  w->KV("tid", static_cast<uint64_t>(node.tid));
  w->Key("args");
  w->BeginObject();
  w->KV("self_us", node.self_us);
  for (const auto& [name, delta] : node.counter_deltas) w->KV(name, delta);
  w->EndObject();
  w->EndObject();
  for (const SpanNode& child : node.children) EmitEvents(child, w);
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Reset() {
  SharedTracer& t = shared();
  std::lock_guard<std::mutex> lock(t.mu);
  t.roots.clear();
  t.epoch_set = false;
  t.generation.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SpanNode::CounterDelta(std::string_view counter_name) const {
  for (const auto& [name, delta] : counter_deltas) {
    if (name == counter_name) return delta;
  }
  return 0;
}

std::vector<SpanNode> FinishedRoots() {
  SharedTracer& t = shared();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.roots;
}

uint32_t ThisThreadTrack() {
  ThreadTracer& t = thread_tracer();
  if (t.tid == 0) {
    t.tid = shared().next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t.tid;
}

Span::Span(const char* name) : active_(Enabled()) {
  if (!active_) return;
  SharedTracer& s = shared();
  ThreadTracer& t = thread_tracer();
  ThisThreadTrack();

  Clock::time_point epoch;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.epoch_set) {
      s.epoch = Clock::now();
      s.epoch_set = true;
    }
    epoch = s.epoch;
    generation = s.generation.load(std::memory_order_relaxed);
  }

  OpenSpan open;
  open.node.name = name;
  open.node.tid = t.tid;
  open.generation = generation;
  metrics::SampleCounterValues(&open.counters_at_start);
  open.start = Clock::now();
  open.node.start_us = MicrosBetween(epoch, open.start);
  t.stack.push_back(std::move(open));
}

Span::~Span() {
  if (!active_) return;
  SharedTracer& s = shared();
  ThreadTracer& t = thread_tracer();
  NSKY_CHECK_MSG(!t.stack.empty(), "trace span stack underflow");
  Clock::time_point end = Clock::now();
  OpenSpan open = std::move(t.stack.back());
  t.stack.pop_back();

  open.node.dur_us = MicrosBetween(open.start, end);
  open.node.self_us = open.node.dur_us - open.children_dur_us;

  // Counter deltas: counters registered mid-span start from zero. With
  // concurrent workers the deltas attribute *global* counter growth to the
  // span's wall-time window; exact per-phase attribution lives in the
  // deterministic SkylineStats, not here.
  metrics::SampleCounterValues(&t.sample);
  for (size_t i = 0; i < t.sample.size(); ++i) {
    uint64_t before =
        i < open.counters_at_start.size() ? open.counters_at_start[i] : 0;
    if (t.sample[i] > before) {
      open.node.counter_deltas.emplace_back(metrics::CounterName(i),
                                            t.sample[i] - before);
    }
  }

  const uint64_t generation = s.generation.load(std::memory_order_relaxed);
  if (open.generation != generation) return;  // trace was Reset() meanwhile
  if (!t.stack.empty() && t.stack.back().generation == generation) {
    OpenSpan& parent = t.stack.back();
    parent.children_dur_us += open.node.dur_us;
    parent.node.children.push_back(std::move(open.node));
  } else {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.generation.load(std::memory_order_relaxed) != generation) return;
    s.roots.push_back(std::move(open.node));
  }
}

std::string ToChromeTraceJson() {
  std::vector<SpanNode> roots = FinishedRoots();
  JsonWriter w;
  w.BeginArray();
  for (const SpanNode& root : roots) EmitEvents(root, &w);
  w.EndArray();
  return std::move(w).Take();
}

Status WriteChromeTrace(const std::string& path) {
  std::string json = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IoError("short write to trace file " + path);
  }
  return Status::Ok();
}

}  // namespace nsky::util::trace
