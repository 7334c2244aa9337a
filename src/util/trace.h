// RAII phase tracing: scoped spans building a hierarchical phase tree.
//
//   {
//     NSKY_TRACE_SPAN("refine");
//     ... work ...
//   }   // span closed here
//
// Each span records wall time, self time (wall minus direct children) and
// the delta of every registered metrics counter across its lifetime, so a
// trace answers "which phase produced which pruning work". The finished tree
// is exportable as Chrome trace_event JSON (chrome://tracing, Perfetto).
//
// Tracing is off by default; Span construction is then a single atomic load.
// The tracer keeps one span stack *per thread* (thread-local), so worker
// threads of the parallel solver engine can open their own spans
// concurrently. Nesting is tracked within each thread: a span opened on a
// worker thread becomes a root of that thread's track (identified by
// SpanNode::tid) rather than a child of whatever span the spawning thread
// has open. Only the attach-to-shared-trace step on close takes a mutex, so
// spans stay cheap enough for per-chunk (not per-item) granularity.
#ifndef NSKY_UTIL_TRACE_H_
#define NSKY_UTIL_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace nsky::util::trace {

// Enables/disables span collection. Enabling does not clear previously
// collected spans; call Reset() for a fresh trace.
void SetEnabled(bool enabled);
bool Enabled();

// Discards every collected span (open spans keep recording but are dropped
// when closed; their children collected so far are discarded with them).
void Reset();

// One closed span in the phase tree.
struct SpanNode {
  std::string name;
  // Track id: 1 for the first thread that ever opened a span (normally the
  // main thread), 2, 3, ... for each further thread in first-span order.
  // Chrome trace events carry it as "tid" so worker spans render as
  // separate tracks.
  uint32_t tid = 1;
  // Microseconds since the tracer epoch (first span after Reset()).
  double start_us = 0.0;
  // Wall-clock duration.
  double dur_us = 0.0;
  // dur_us minus the duration of direct children (own work).
  double self_us = 0.0;
  // (counter name, increase) for every counter that grew during the span.
  std::vector<std::pair<std::string, uint64_t>> counter_deltas;
  std::vector<SpanNode> children;

  uint64_t CounterDelta(std::string_view counter_name) const;
};

// Copies the closed top-level spans collected since the last Reset().
std::vector<SpanNode> FinishedRoots();

// The calling thread's track id (SpanNode::tid), assigned now if the thread
// has not opened a span yet. Lets a caller pick its own threads' roots out
// of FinishedRoots() when other threads trace at the same time.
uint32_t ThisThreadTrack();

// Chrome trace-event JSON: an array of complete ("ph":"X") events with
// name/ts/dur/pid/tid; counter deltas ride in "args". Loadable by
// chrome://tracing and Perfetto.
std::string ToChromeTraceJson();

// Writes ToChromeTraceJson() to `path`.
Status WriteChromeTrace(const std::string& path);

// RAII span handle. Inactive (and nearly free) when tracing is disabled at
// construction time.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace nsky::util::trace

#define NSKY_TRACE_CONCAT_INNER_(a, b) a##b
#define NSKY_TRACE_CONCAT_(a, b) NSKY_TRACE_CONCAT_INNER_(a, b)
#define NSKY_TRACE_SPAN(name) \
  ::nsky::util::trace::Span NSKY_TRACE_CONCAT_(nsky_trace_span_, __LINE__)(name)

#endif  // NSKY_UTIL_TRACE_H_
