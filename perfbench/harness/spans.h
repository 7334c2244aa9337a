// In-memory span recording for the benchmark's traced runs.
//
// Spans are recorded by benchmark code around its calls into each layer's
// public functions (nothing inside src/ is instrumented). A span's name is
// "<layer>.<operation>"; the layer prefix ("server", "core", "graph",
// "persist", or "bench" for the benchmark's own envelopes) is what self
// times are rolled up by. Spans of one replayed request share a request
// id, and a child names its parent span. The recorder keeps everything in
// memory and writes Chrome trace-event JSON when the run ends.
#ifndef NSKY_PERFBENCH_HARNESS_SPANS_H_
#define NSKY_PERFBENCH_HARNESS_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace nsky::perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the parent span, -1 for a root
  uint64_t request_id = 0;
  uint32_t thread = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
  // "server" for "server.parse".
  std::string layer() const { return name.substr(0, name.find('.')); }
};

// Thread-safe span store. Begin() returns the span's index, which End()
// closes and children pass as their parent.
class SpanRecorder {
 public:
  int64_t Begin(std::string name, int64_t parent, uint64_t request_id,
                uint32_t thread = 0);
  void End(int64_t index);
  std::vector<Span> spans() const;
  util::Status WriteChromeJson(const std::string& path) const;

 private:
  static int64_t NowNs();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span: begins at construction, ends at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t parent,
             uint64_t request_id, uint32_t thread = 0)
      : recorder_(recorder),
        index_(recorder->Begin(std::move(name), parent, request_id, thread)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { recorder_->End(index_); }
  int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

// A span's self time: its duration minus the part of its interval covered
// by the union of its children's intervals (clipped to the span).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Self time per layer in microseconds, averaged over the span trees whose
// root is named in `roots`; spans of other trees are ignored.
std::map<std::string, double> SelfTimePerTreeUs(
    const std::vector<Span>& spans, const std::set<std::string>& roots);

// Durations of every span named `name` -- and, when `parent_name` is
// given, whose parent is named `parent_name` -- in microseconds.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const std::string& name,
                                const std::string& parent_name = "");

}  // namespace nsky::perfbench

#endif  // NSKY_PERFBENCH_HARNESS_SPANS_H_
