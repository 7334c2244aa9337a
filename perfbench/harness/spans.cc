#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util/json_writer.h"

namespace nsky::perfbench {

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Begin(std::string name, int64_t parent,
                            uint64_t request_id, uint32_t thread) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request_id = request_id;
  span.thread = thread;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

util::Status SpanRecorder::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  util::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("cat", s.layer());
    w.KV("ph", "X");
    w.KV("ts", static_cast<double>(s.start_ns - origin) / 1e3);
    w.KV("dur", static_cast<double>(s.duration_ns()) / 1e3);
    w.KV("pid", static_cast<uint64_t>(1));
    w.KV("tid", static_cast<uint64_t>(s.thread));
    w.Key("args");
    w.BeginObject();
    w.KV("span", static_cast<uint64_t>(i));
    w.KV("parent", static_cast<int64_t>(s.parent));
    w.KV("request_id", s.request_id);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path);
  out << std::move(w).Take() << "\n";
  out.flush();
  if (!out.good()) return util::Status::IoError("cannot write " + path);
  return util::Status::Ok();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;  // end of the union covered so far
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimePerTreeUs(
    const std::vector<Span>& spans, const std::set<std::string>& roots) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> by_layer;
  uint64_t trees = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t root = i;
    while (spans[root].parent >= 0) {
      root = static_cast<size_t>(spans[root].parent);
    }
    if (roots.count(spans[root].name) == 0) continue;
    if (root == i) ++trees;
    by_layer[spans[i].layer()] += static_cast<double>(self[i]) / 1e3;
  }
  for (auto& [layer, us] : by_layer) us /= static_cast<double>(trees);
  return by_layer;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const std::string& name,
                                const std::string& parent_name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (!parent_name.empty() &&
        (s.parent < 0 ||
         spans[static_cast<size_t>(s.parent)].name != parent_name)) {
      continue;
    }
    out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
  }
  return out;
}

}  // namespace nsky::perfbench
