#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace nsky::perfbench {

namespace {

// Index of the nearest-rank q-percentile in a sorted array of n samples.
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t i = RankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + i, samples.end());
  return samples[i];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tail TailRule(size_t n) {
  struct Candidate {
    const char* name;
    double q;
  };
  static constexpr Candidate kCandidates[] = {
      {"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95},
      {"p90", 0.90},    {"p75", 0.75}, {"p50", 0.50}};
  auto beyond = [n](double q) { return n == 0 ? 0 : n - 1 - RankIndex(n, q); };
  const Candidate* chosen = &kCandidates[std::size(kCandidates) - 1];
  for (const Candidate& c : kCandidates) {
    if (beyond(c.q) >= Tail::kMinBeyond) {
      chosen = &c;
      break;
    }
  }
  Tail tail;
  tail.name = chosen->name;
  tail.quantile = chosen->q;
  tail.samples = n;
  tail.beyond = beyond(chosen->q);
  return tail;
}

Tail TailPercentile(const std::vector<double>& samples) {
  Tail tail = TailRule(samples.size());
  tail.value = Percentile(samples, tail.quantile);
  return tail;
}

int WindowCount(double seconds, double window_s) {
  return std::max(1, static_cast<int>(std::floor(seconds / window_s + 1e-9)));
}

WindowedSummary SummarizeWindows(const std::vector<double>& at_s,
                                 const std::vector<double>& values,
                                 double seconds, double window_s) {
  WindowedSummary summary;
  summary.windows = WindowCount(seconds, window_s);
  const double width = seconds / summary.windows;
  std::vector<std::vector<double>> windows(static_cast<size_t>(summary.windows));
  // First and last completion per window: the rate is (count - 1) over the
  // time between them, which does not round to multiples of 1 / width.
  std::vector<std::pair<double, double>> span(windows.size(), {seconds, 0.0});
  for (size_t i = 0; i < at_s.size() && i < values.size(); ++i) {
    if (at_s[i] < 0 || at_s[i] >= seconds) continue;
    const size_t k = std::min(windows.size() - 1,
                              static_cast<size_t>(at_s[i] / width));
    windows[k].push_back(values[i]);
    span[k].first = std::min(span[k].first, at_s[i]);
    span[k].second = std::max(span[k].second, at_s[i]);
  }
  summary.min_window_samples = windows[0].size();
  for (const auto& w : windows) {
    summary.min_window_samples = std::min(summary.min_window_samples, w.size());
  }
  const Tail rule = TailRule(summary.min_window_samples);
  summary.tail_name = rule.name;
  std::vector<double> rates, p50s, tails;
  for (size_t k = 0; k < windows.size(); ++k) {
    const std::vector<double>& w = windows[k];
    const double busy = span[k].second - span[k].first;
    rates.push_back(w.size() > 1 && busy > 0
                        ? static_cast<double>(w.size() - 1) / busy
                        : static_cast<double>(w.size()) / width);
    summary.window_p50s.push_back(Median(w));  // NaN when empty
    if (w.empty()) continue;
    p50s.push_back(summary.window_p50s.back());
    tails.push_back(Percentile(w, rule.quantile));
  }
  summary.rate_per_s = Median(rates);
  summary.p50 = Median(p50s);
  summary.tail = Median(tails);
  return summary;
}

double TracedMinusUntraced(const std::vector<double>& window_p50s) {
  std::vector<double> differences;
  for (size_t k = 1; k + 1 < window_p50s.size(); k += 2) {
    const double d =
        (window_p50s[k - 1] + window_p50s[k + 1]) / 2 - window_p50s[k];
    if (!std::isnan(d)) differences.push_back(d);
  }
  return differences.empty() ? std::numeric_limits<double>::quiet_NaN()
                             : Median(differences);
}

double QueueWaitUs(double handle_concurrent_mean_us,
                   double handle_single_mean_us) {
  return handle_concurrent_mean_us - handle_single_mean_us;
}

double TransportUs(const std::vector<double>& round_trip_us,
                   const std::vector<double>& handle_us, double parse_us,
                   double serialize_us) {
  std::vector<double> differences;
  for (size_t i = 0; i < round_trip_us.size() && i < handle_us.size(); ++i) {
    differences.push_back(round_trip_us[i] - handle_us[i]);
  }
  if (differences.empty()) return std::numeric_limits<double>::quiet_NaN();
  return Median(differences) - parse_us - serialize_us;
}

double DecodeMs(double load_ms, double inspect_ms) {
  return load_ms - inspect_ms;
}

bool BacklogGrew(const std::vector<double>& lags_ms, double interval_ms) {
  const size_t quarter = lags_ms.size() / 4;
  if (quarter == 0) return false;
  const std::vector<double> first(lags_ms.begin(), lags_ms.begin() + quarter);
  const std::vector<double> last(lags_ms.end() - quarter, lags_ms.end());
  return Mean(last) > Mean(first) + interval_ms;
}

}  // namespace nsky::perfbench
