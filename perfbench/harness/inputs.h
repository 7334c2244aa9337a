// Seeded input generation for the serving benchmark.
//
// A workload's inputs are files written before any timing starts and read
// back by the measuring process, so the program under test receives only
// generated inputs:
//   graph.txt      the stand-in graph as an edge list. The seed permutes the
//                  vertex labels; lines keep the stand-in's canonical order,
//                  and LoadEdgeList relabels densely by first appearance, so
//                  every seed loads the same graph from different bytes.
//   batches.txt    edge-toggle batches, one per line ("+ u v - u v ..."),
//                  drawn from the seed against the benchmark's own copy of
//                  the edge set (ids as LoadEdgeList assigns them), so every
//                  update changes the graph.
//   snapshot.nsky  (optional) a persist::Save of an engine on graph.txt,
//                  warmed like `nsky snapshot save --warm all`.
#ifndef NSKY_PERFBENCH_HARNESS_INPUTS_H_
#define NSKY_PERFBENCH_HARNESS_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/versioned_graph.h"
#include "util/status.h"

namespace nsky::perfbench {

using Batch = std::vector<graph::EdgeUpdate>;

// Toggles per /v1/edges batch, and batches drawn per seed: enough for a
// 60 s run at skyline_mutate's rate plus warm-up and the traced replay.
inline constexpr size_t kBatchSize = 4;
inline constexpr size_t kGeneratedBatches = 8000;

struct InputSpec {
  std::string standin = "notredame";  // served at full scale
  uint64_t seed = 1;
  bool snapshot = false;  // also write snapshot.nsky
};

// File names inside an input directory.
std::string GraphPath(const std::string& dir);
std::string BatchesPath(const std::string& dir);
std::string SnapshotPath(const std::string& dir);

// Writes the spec's inputs into `dir` (which must exist).
util::Status GenerateInputs(const InputSpec& spec, const std::string& dir);

util::Result<std::vector<Batch>> ReadBatches(const std::string& path);

// The benchmark's own copy of an undirected edge set: O(1) membership,
// insertion, deletion and uniform sampling of a present edge.
class EdgeSet {
 public:
  explicit EdgeSet(const graph::Graph& g);
  bool Has(graph::VertexId u, graph::VertexId v) const;
  // Applies a toggle batch; returns false if an update was a no-op.
  bool Apply(const Batch& batch);
  graph::Graph ToGraph() const;
  graph::VertexId num_vertices() const { return n_; }
  size_t size() const { return edges_.size(); }
  // The i-th present edge (0 <= i < size()) as (u, v) with u < v.
  graph::Edge At(size_t i) const;

 private:
  static uint64_t Key(graph::VertexId u, graph::VertexId v);
  void Insert(uint64_t key);
  void Erase(uint64_t key);
  graph::VertexId n_ = 0;
  std::vector<uint64_t> edges_;
  std::unordered_map<uint64_t, size_t> index_;  // key -> position in edges_
};

}  // namespace nsky::perfbench

#endif  // NSKY_PERFBENCH_HARNESS_INPUTS_H_
