// Summary statistics and derived metrics of the serving benchmark.
//
// Every timing the benchmark reports goes through this file, so the rule
// for choosing a tail percentile and the arithmetic of the derived
// per-layer metrics live in one place and are unit-tested
// (perfbench/tests/harness_test.cc).
#ifndef NSKY_PERFBENCH_HARNESS_STATS_H_
#define NSKY_PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace nsky::perfbench {

// Nearest-rank percentile: the smallest sample with at least q * n samples
// at or below it. `q` is in (0, 1]; NaN for an empty input.
double Percentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

double Mean(const std::vector<double>& samples);

// The tail a sample set can support: the highest of p99.9, p99, p95, p90,
// p75 and p50 that leaves at least kMinBeyond samples strictly above its
// rank. With fewer than 2 * kMinBeyond samples no candidate qualifies and
// the median is reported (named "p50").
struct Tail {
  static constexpr size_t kMinBeyond = 10;
  std::string name;    // "p99", "p95", ...
  double quantile = 0;  // 0.99, 0.95, ...
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  // samples ranked above `value`
};
Tail TailPercentile(const std::vector<double>& samples);
// The percentile TailPercentile picks for `n` samples (value left 0).
Tail TailRule(size_t n);

// A timed phase summarized window by window. The phase is cut into equal
// windows of about `window_s`; each window gets its completion rate, its
// median and its tail, and the summary reports the median of each across
// windows, so a burst of interference from outside the benchmark that
// spoils a minority of windows does not move the result. The tail's
// percentile is the one TailPercentile picks for the window with the
// fewest samples, applied to every window.
struct WindowedSummary {
  int windows = 0;
  size_t min_window_samples = 0;
  double rate_per_s = 0;
  double p50 = 0;
  double tail = 0;
  std::string tail_name;
  std::vector<double> window_p50s;  // per window, in order; NaN when empty
};
// The number of windows SummarizeWindows cuts a phase of `seconds` into;
// each is seconds / WindowCount(...) wide.
int WindowCount(double seconds, double window_s);
// `at_s[i]` is when sample i completed, in seconds from the phase start;
// samples at or after `seconds` are ignored.
WindowedSummary SummarizeWindows(const std::vector<double>& at_s,
                                 const std::vector<double>& values,
                                 double seconds, double window_s);

// The cost tracing adds to a request, from one phase whose even windows
// ran traced and whose odd windows ran untraced: the median, over the odd
// windows k that have a traced window on both sides, of the mean p50 of
// windows k - 1 and k + 1 minus the p50 of window k. Comparing each
// untraced window with its two neighbours cancels a drift of the machine
// that is linear over the three windows. Empty windows drop out; NaN
// without a complete triple.
double TracedMinusUntraced(const std::vector<double>& window_p50s);


// Derived per-layer metrics (see perfbench/interaction_map.json).
//
// Time a request waits for the serving cell: the mean in-process Handle()
// time at the workload's concurrency minus the mean with a single caller.
double QueueWaitUs(double handle_concurrent_mean_us,
                   double handle_single_mean_us);

// Time outside the server's code on the request path, from one caller
// alternating a round trip over the socket with the same request handled
// in-process: the median over pairs i of round_trip_us[i] - handle_us[i],
// minus parsing and serializing. With one caller neither side waits in a
// queue (at the workload's concurrency the in-process callers, having no
// transport to spend time in, queue longer than the socket callers and the
// difference goes negative), and pairing cancels the machine's drift.
// NaN without a pair.
double TransportUs(const std::vector<double>& round_trip_us,
                   const std::vector<double>& handle_us, double parse_us,
                   double serialize_us);

// Time persist::Load spends decoding, after reading and CRC-checking the
// file (which persist::Inspect measures on its own).
double DecodeMs(double load_ms, double inspect_ms);

// An open-loop generator's backlog grew when it sent the last quarter of
// its schedule later than the first quarter by more than one send
// interval: it fell at least one whole request behind and did not catch
// up. `lags_ms` are the per-request send delays in schedule order.
bool BacklogGrew(const std::vector<double>& lags_ms, double interval_ms);

}  // namespace nsky::perfbench

#endif  // NSKY_PERFBENCH_HARNESS_STATS_H_
