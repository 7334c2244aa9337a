// POST /v1/edges over the wire: request validation, the nsky.mutate.v1
// document, epoch provenance on every skyline response, and the
// acceptance drill -- mutations racing concurrent queries with zero 5xx
// and every response consistent with exactly one epoch.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "graph/generators.h"
#include "persist/snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "server/service.h"

namespace nsky::server {
namespace {

using graph::Graph;

Graph BaseGraph() { return graph::MakeChungLuPowerLaw(260, 2.4, 5, 19); }

std::string NormalizeSeconds(const std::string& json) {
  static const std::regex kSeconds("\"seconds\":[0-9.eE+-]+");
  return std::regex_replace(json, kSeconds, "\"seconds\":X");
}

// One POST round trip with a JSON body.
util::Result<ClientResponse> PostJson(uint16_t port, const std::string& target,
                                      const std::string& body) {
  HttpClient client(port);
  return client.Raw("POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
                    "Content-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
}

std::string UpdateBody(uint32_t u, uint32_t v, bool insert) {
  return "{\"updates\":[{\"u\":" + std::to_string(u) +
         ",\"v\":" + std::to_string(v) + ",\"op\":\"" +
         (insert ? "insert" : "delete") + "\"}]}";
}

class MutateServer {
 public:
  explicit MutateServer(std::unique_ptr<core::Engine> engine,
                        ServiceOptions options = ServiceOptions{},
                        ServerOptions server_options = ServerOptions{}) {
    service_ = std::make_unique<SkylineService>(std::move(engine), options);
    server_ = std::make_unique<Server>(service_.get(), server_options);
    auto status = server_->Listen();
    EXPECT_TRUE(status.ok()) << status.ToString();
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  ~MutateServer() {
    server_->Shutdown();
    serve_thread_.join();
  }

  uint16_t port() const { return server_->port(); }
  SkylineService& service() { return *service_; }

 private:
  std::unique_ptr<SkylineService> service_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
};

TEST(MutateEndpoint, AppliesBatchAndAdvancesEpoch) {
  Graph g = BaseGraph();
  ASSERT_FALSE(g.HasEdge(3, 200));
  const uint64_t edges_before = g.NumEdges();
  MutateServer ts(std::make_unique<core::Engine>(std::move(g)));

  // Queries advertise the epoch from the very first response.
  auto before = HttpGet(ts.port(), "/v1/skyline");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().status, 200);
  EXPECT_EQ(before.value().headers.at("x-nsky-epoch"), "0");

  auto r = PostJson(ts.port(), "/v1/edges", UpdateBody(3, 200, true));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().status, 200) << r.value().body;
  const std::string& body = r.value().body;
  EXPECT_NE(body.find("\"schema\":\"nsky.mutate.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"applied\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"skipped\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"epoch\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"edges\":" + std::to_string(edges_before + 1)),
            std::string::npos)
      << body;
  EXPECT_EQ(r.value().headers.at("x-nsky-epoch"), "1");

  // The post-mutation answer serves under the new epoch and matches a
  // cold engine built on the mutated graph byte-for-byte (mod seconds).
  auto after = HttpGet(ts.port(), "/v1/skyline");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().status, 200);
  EXPECT_EQ(after.value().headers.at("x-nsky-epoch"), "1");
  Graph mutated = BaseGraph();
  // Rebuild the expected document from a fresh server on the same graph.
  {
    core::Engine oracle(std::move(mutated));
    std::vector<graph::EdgeUpdate> updates = {{3, 200, true}};
    oracle.ApplyUpdates(updates);
    MutateServer oracle_server(
        std::make_unique<core::Engine>(Graph(oracle.graph())));
    auto want = HttpGet(oracle_server.port(), "/v1/skyline");
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(NormalizeSeconds(after.value().body),
              NormalizeSeconds(want.value().body));
  }

  // Duplicate insert: staged no-op, epoch unchanged.
  auto dup = PostJson(ts.port(), "/v1/edges", UpdateBody(3, 200, true));
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(dup.value().status, 200);
  EXPECT_NE(dup.value().body.find("\"applied\":0"), std::string::npos);
  EXPECT_NE(dup.value().body.find("\"skipped\":1"), std::string::npos);
  EXPECT_NE(dup.value().body.find("\"epoch\":1"), std::string::npos);
}

TEST(MutateEndpoint, RequestValidation) {
  MutateServer ts(std::make_unique<core::Engine>(graph::MakeStar(16)));

  // GET on the mutation route is not allowed.
  auto get = HttpGet(ts.port(), "/v1/edges");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().status, 405);

  const std::string bad_bodies[] = {
      "",                                        // empty
      "not json",                                // unparsable
      "[]",                                      // not an object
      "{}",                                      // missing updates
      "{\"updates\":{}}",                        // updates not an array
      "{\"updates\":[42]}",                      // entry not an object
      "{\"updates\":[{\"u\":1,\"v\":2}]}",       // missing op
      "{\"updates\":[{\"u\":1,\"v\":2,\"op\":\"toggle\"}]}",  // bad op
      "{\"updates\":[{\"u\":-1,\"v\":2,\"op\":\"insert\"}]}",  // negative id
      "{\"updates\":[{\"u\":1.5,\"v\":2,\"op\":\"insert\"}]}",  // fractional
      "{\"updates\":[{\"u\":\"x\",\"v\":2,\"op\":\"insert\"}]}",  // non-number
      "{\"updates\":[{\"u\":4294967296,\"v\":2,\"op\":\"insert\"}]}",  // 2^32
  };
  for (const std::string& body : bad_bodies) {
    auto r = PostJson(ts.port(), "/v1/edges", body);
    ASSERT_TRUE(r.ok()) << body;
    EXPECT_EQ(r.value().status, 400) << "body: " << body;
    EXPECT_NE(r.value().body.find("\"schema\":\"nsky.error.v1\""),
              std::string::npos)
        << body;
  }

  // Nothing mutated: the graph still answers under epoch 0.
  auto q = HttpGet(ts.port(), "/v1/skyline");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().headers.at("x-nsky-epoch"), "0");
}

TEST(MutateEndpoint, DirtySuffixFlowsThroughServingSurfaces) {
  // A snapshot-restored replica that mutates must stop advertising the
  // pristine snapshot id everywhere observable.
  std::string path = ::testing::TempDir() + "/nsky_mutate_" +
                     std::to_string(static_cast<long>(::getpid())) + ".nsnap";
  {
    core::Engine engine(BaseGraph());
    engine.Query();
    ASSERT_TRUE(persist::Save(engine, path).ok());
  }
  auto loaded = persist::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string id = loaded.value()->snapshot_info()->id;
  MutateServer ts(std::move(loaded).value());

  auto health = HttpGet(ts.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().body, "ok\nsnapshot " + id + "\n");

  auto r = PostJson(ts.port(), "/v1/edges", UpdateBody(3, 200, true));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().status, 200) << r.value().body;

  const std::string dirty = id + "+dirty@epoch1";
  health = HttpGet(ts.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().body, "ok\nsnapshot " + dirty + "\n");
  auto q = HttpGet(ts.port(), "/v1/skyline");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().headers.at("x-nsky-snapshot"), dirty);
  auto stats = HttpGet(ts.port(), "/v1/engine_stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().body.find("\"id\":\"" + dirty + "\""),
            std::string::npos)
      << stats.value().body;
  EXPECT_NE(stats.value().body.find("\"mutation\":{"), std::string::npos)
      << stats.value().body;
  auto queries = HttpGet(ts.port(), "/v1/queries");
  ASSERT_TRUE(queries.ok());
  EXPECT_NE(
      queries.value().body.find("\"origin\":\"snapshot:" + dirty + "\""),
      std::string::npos)
      << queries.value().body;
  auto prom = HttpGet(ts.port(), "/v1/metrics");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().body.find("nsky_engine_epoch 1"), std::string::npos)
      << prom.value().body;
  EXPECT_NE(prom.value().body.find("nsky_engine_mutation_batches 1"),
            std::string::npos)
      << prom.value().body;
  std::remove(path.c_str());
}

// The acceptance drill: a mutator thread toggles one edge through many
// epochs while query threads hammer /v1/skyline. Zero 5xx (or any non-200)
// anywhere, and every query body must be byte-identical (mod seconds) to
// the canonical answer of the epoch its X-Nsky-Epoch header names --
// toggling one edge makes that answer a pure function of epoch parity.
void RunEpochDrill(uint32_t session_threads) {
  Graph g = BaseGraph();
  const uint32_t kU = 5;
  const uint32_t kV = 210;
  ASSERT_FALSE(g.HasEdge(kU, kV));

  ServiceOptions options;
  options.max_inflight = 64;  // nothing sheds; every request must answer
  ServerOptions server_options;
  server_options.session_threads = session_threads;
  MutateServer ts(std::make_unique<core::Engine>(std::move(g)), options,
                  server_options);

  // Canonical answers per epoch parity, captured before the race: even
  // epochs serve the base graph, odd epochs the base + {kU, kV}.
  std::map<int, std::string> expected;
  auto even = HttpGet(ts.port(), "/v1/skyline");
  ASSERT_TRUE(even.ok());
  ASSERT_EQ(even.value().status, 200);
  expected[0] = NormalizeSeconds(even.value().body);
  auto flip = PostJson(ts.port(), "/v1/edges", UpdateBody(kU, kV, true));
  ASSERT_TRUE(flip.ok());
  ASSERT_EQ(flip.value().status, 200);
  auto odd = HttpGet(ts.port(), "/v1/skyline");
  ASSERT_TRUE(odd.ok());
  ASSERT_EQ(odd.value().status, 200);
  expected[1] = NormalizeSeconds(odd.value().body);
  ASSERT_NE(expected[0], expected[1])
      << "the toggled edge must change the answer for the drill to bite";

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;  // 100 queries total
  constexpr int kToggles = 8;     // epochs 2 .. 9 during the race
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::vector<std::string> first_error(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client(ts.port());
      for (int i = 0; i < kPerThread; ++i) {
        auto r = client.Get("/v1/skyline");
        std::string error;
        if (!r.ok()) {
          error = "transport: " + r.status().ToString();
        } else if (r.value().status != 200) {
          error = "status " + std::to_string(r.value().status) + ": " +
                  r.value().body;
        } else {
          auto it = r.value().headers.find("x-nsky-epoch");
          if (it == r.value().headers.end()) {
            error = "missing X-Nsky-Epoch header";
          } else {
            const int parity = (it->second.back() - '0') % 2;
            if (NormalizeSeconds(r.value().body) != expected[parity]) {
              error = "body does not match epoch " + it->second;
            }
          }
        }
        if (!error.empty()) {
          failures.fetch_add(1);
          if (first_error[t].empty()) first_error[t] = error;
        }
        completed.fetch_add(1);
      }
    });
  }

  // Toggle the edge while the clients hammer; every mutation must succeed
  // and advance the epoch by exactly one.
  uint64_t epoch = 1;
  for (int toggle = 0; toggle < kToggles; ++toggle) {
    while (completed.load() < (toggle + 1) * 10 &&
           completed.load() < kThreads * kPerThread) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool insert = (toggle % 2) == 1;  // epoch 1 inserted; 2 deletes
    auto r = PostJson(ts.port(), "/v1/edges", UpdateBody(kU, kV, insert));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().status, 200) << r.value().body;
    ++epoch;
    EXPECT_EQ(r.value().headers.at("x-nsky-epoch"), std::to_string(epoch));
  }

  for (auto& c : clients) c.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
  EXPECT_EQ(failures.load(), 0)
      << "first errors per thread: " << first_error[0] << " | "
      << first_error[1] << " | " << first_error[2] << " | " << first_error[3];
}

// The four readers' queries overlap in the engine (they hold the serving
// cell shared). With four session workers the writer's connection waits
// for a reader to leave; a fifth worker lets every mutation land mid-race.
TEST(MutateStress, ConcurrentQueriesAcrossEpochs) {
  for (uint32_t session_threads : {4u, 5u}) {
    SCOPED_TRACE(::testing::Message()
                 << "session_threads " << session_threads);
    RunEpochDrill(session_threads);
  }
}

}  // namespace
}  // namespace nsky::server
