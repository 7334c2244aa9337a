#include "inputs.h"

#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "core/engine.h"
#include "datasets/registry.h"
#include "graph/io.h"
#include "persist/snapshot.h"
#include "util/rng.h"

namespace nsky::perfbench {

std::string GraphPath(const std::string& dir) { return dir + "/graph.txt"; }
std::string BatchesPath(const std::string& dir) { return dir + "/batches.txt"; }
std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.nsky";
}

EdgeSet::EdgeSet(const graph::Graph& g) : n_(g.NumVertices()) {
  edges_.reserve(g.NumEdges());
  index_.reserve(g.NumEdges());
  for (graph::VertexId u = 0; u < n_; ++u) {
    for (graph::VertexId v : g.Neighbors(u)) {
      if (u < v) Insert(Key(u, v));
    }
  }
}

uint64_t EdgeSet::Key(graph::VertexId u, graph::VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

bool EdgeSet::Has(graph::VertexId u, graph::VertexId v) const {
  return index_.count(Key(u, v)) != 0;
}

void EdgeSet::Insert(uint64_t key) {
  index_.emplace(key, edges_.size());
  edges_.push_back(key);
}

void EdgeSet::Erase(uint64_t key) {
  const size_t pos = index_.at(key);
  index_[edges_.back()] = pos;
  edges_[pos] = edges_.back();
  edges_.pop_back();
  index_.erase(key);
}

bool EdgeSet::Apply(const Batch& batch) {
  bool all_applied = true;
  for (const graph::EdgeUpdate& up : batch) {
    const uint64_t key = Key(up.u, up.v);
    const bool present = index_.count(key) != 0;
    if (up.u == up.v || up.u >= n_ || up.v >= n_ || present == up.insert) {
      all_applied = false;
      continue;
    }
    if (up.insert) {
      Insert(key);
    } else {
      Erase(key);
    }
  }
  return all_applied;
}

graph::Edge EdgeSet::At(size_t i) const {
  return {static_cast<graph::VertexId>(edges_[i] >> 32),
          static_cast<graph::VertexId>(edges_[i] & 0xffffffffu)};
}

graph::Graph EdgeSet::ToGraph() const {
  std::vector<graph::Edge> edges;
  edges.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) edges.push_back(At(i));
  return graph::Graph::FromEdges(n_, std::move(edges));
}

namespace {

util::Status WriteGraph(const graph::Graph& g, uint64_t seed,
                        const std::string& path) {
  std::vector<uint64_t> label(g.NumVertices());
  std::iota(label.begin(), label.end(), uint64_t{0});
  util::Rng rng(seed);
  rng.Shuffle(label);
  std::ofstream out(path);
  out << "# perfbench graph: " << g.NumVertices() << " vertices, "
      << g.NumEdges() << " edges, label seed " << seed << "\n";
  for (graph::VertexId u = 0; u < g.NumVertices(); ++u) {
    for (graph::VertexId v : g.Neighbors(u)) {
      if (u < v) out << label[u] << ' ' << label[v] << '\n';
    }
  }
  out.flush();
  if (!out.good()) return util::Status::IoError("cannot write " + path);
  return util::Status::Ok();
}

// Draws batches of distinct toggles: each is, with equal odds, the deletion
// of a present edge or the insertion of an absent one, so the edge count
// stays near the original.
std::vector<Batch> DrawBatches(EdgeSet edges, const InputSpec& spec) {
  util::Rng rng(util::Mix64(spec.seed ^ 0xba7c4e5ull));
  const graph::VertexId n = edges.num_vertices();
  std::vector<Batch> batches(kGeneratedBatches);
  for (Batch& batch : batches) {
    std::unordered_set<uint64_t> touched;
    while (batch.size() < kBatchSize) {
      graph::EdgeUpdate up;
      up.insert = rng.NextBool(0.5) || edges.size() == 0;
      if (up.insert) {
        up.u = static_cast<graph::VertexId>(rng.NextUint64(n));
        up.v = static_cast<graph::VertexId>(rng.NextUint64(n));
        if (up.u == up.v || edges.Has(up.u, up.v)) continue;
      } else {
        std::tie(up.u, up.v) = edges.At(rng.NextUint64(edges.size()));
      }
      const uint64_t key = (static_cast<uint64_t>(std::min(up.u, up.v)) << 32) |
                           std::max(up.u, up.v);
      if (!touched.insert(key).second) continue;
      batch.push_back(up);
    }
    edges.Apply(batch);
  }
  return batches;
}

util::Status WriteBatches(const std::vector<Batch>& batches,
                          const std::string& path) {
  std::ofstream out(path);
  for (const Batch& batch : batches) {
    for (size_t i = 0; i < batch.size(); ++i) {
      out << (i ? " " : "") << (batch[i].insert ? '+' : '-') << ' '
          << batch[i].u << ' ' << batch[i].v;
    }
    out << '\n';
  }
  out.flush();
  if (!out.good()) return util::Status::IoError("cannot write " + path);
  return util::Status::Ok();
}

// The engine `nsky snapshot save --warm all` would save.
util::Status WriteSnapshot(graph::Graph g, const std::string& path) {
  core::Engine engine(std::move(g));
  core::SolverOptions options;
  for (core::Algorithm algorithm :
       {core::Algorithm::kFilterRefine, core::Algorithm::kBaseSky,
        core::Algorithm::kBaseCSet, core::Algorithm::kBase2Hop}) {
    options.algorithm = algorithm;
    engine.Query(options);
  }
  engine.prepared().DegreeOrder();
  engine.prepared().Cores();
  return persist::Save(engine, path);
}

}  // namespace

util::Status GenerateInputs(const InputSpec& spec, const std::string& dir) {
  auto standin = datasets::MakeStandin(spec.standin);
  if (!standin.ok()) return standin.status();
  const std::string graph_path = GraphPath(dir);
  if (auto s = WriteGraph(standin.value(), spec.seed, graph_path); !s.ok()) {
    return s;
  }
  // Batches and the snapshot use the ids the server will see.
  auto loaded = graph::LoadEdgeList(graph_path);
  if (!loaded.ok()) return loaded.status();
  if (auto s = WriteBatches(DrawBatches(EdgeSet(loaded.value()), spec),
                            BatchesPath(dir));
      !s.ok()) {
    return s;
  }
  if (spec.snapshot) return WriteSnapshot(std::move(loaded).value(), SnapshotPath(dir));
  return util::Status::Ok();
}

util::Result<std::vector<Batch>> ReadBatches(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return util::Status::IoError("cannot open " + path);
  std::vector<Batch> batches;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Batch batch;
    char op = 0;
    graph::EdgeUpdate up;
    while (fields >> op >> up.u >> up.v) {
      if (op != '+' && op != '-') {
        return util::Status::InvalidArgument(path + ": bad op in '" + line + "'");
      }
      up.insert = op == '+';
      batch.push_back(up);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace nsky::perfbench
