// Server load trajectory: throughput and latency of the HTTP serving stack
// measured through real loopback sockets.
//
// This is the transport-inclusive companion of bench_serving_latency: where
// that bench times core::Engine::Query directly, this one starts the full
// src/server stack (listener, session workers, HTTP parsing, admission
// control) and drives it with the keep-alive HttpClient, so the reported
// p50/p99 include everything a network caller pays. Two phases per
// dataset:
//
//   steady    client threads <= max_inflight; every request is admitted.
//             Reports QPS and exact per-request p50/p99.
//   overload  max_inflight=1 with many clients; most requests shed with
//             429. Reports the shed rate and the p50 of the (cheap) shed
//             responses -- the overload behavior the admission controller
//             promises: fast deterministic rejection, not queueing.
//
// The report is committed as BENCH_server.json so revisions can be diffed
// for serving-path regressions.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datasets/registry.h"
#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "util/timer.h"

namespace {

using namespace nsky;

struct LoadResult {
  std::vector<double> latencies_us;  // per-request round-trip times
  uint64_t ok = 0;                   // 200 responses
  uint64_t shed = 0;                 // 429 responses
  uint64_t errors = 0;               // anything else (should stay 0)
  double wall_s = 0.0;
};

// `clients` keep-alive connections, each issuing `requests` GETs of
// `target` back to back.
LoadResult DriveLoad(uint16_t port, const std::string& target, int clients,
                     int requests) {
  LoadResult result;
  std::mutex mu;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  util::Timer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::HttpClient client(port);
      std::vector<double> local_us;
      local_us.reserve(static_cast<size_t>(requests));
      uint64_t ok = 0, shed = 0, errors = 0;
      for (int i = 0; i < requests; ++i) {
        util::Timer timer;
        auto r = client.Get(target);
        local_us.push_back(timer.Micros());
        if (!r.ok()) {
          ++errors;
        } else if (r.value().status == 200) {
          ++ok;
        } else if (r.value().status == 429) {
          ++shed;
        } else {
          ++errors;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.latencies_us.insert(result.latencies_us.end(), local_us.begin(),
                                 local_us.end());
      result.ok += ok;
      result.shed += shed;
      result.errors += errors;
      (void)c;
    });
  }
  for (auto& t : threads) t.join();
  result.wall_s = wall.Seconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("Server load",
                "loopback HTTP throughput + p50/p99, steady and overload");

  const uint32_t threads = bench::BenchThreads(argc, argv);
  // Table-1 stand-ins covering the small-scale size range.
  const char* kDatasets[] = {"notredame", "dblp", "youtube", "wikitalk",
                             "flixster"};
  const std::string kTarget =
      "/v1/skyline?algo=filter-refine&threads=" + std::to_string(threads);
  constexpr int kSteadyClients = 4;
  constexpr int kSteadyRequests = 40;
  constexpr int kOverloadClients = 8;
  constexpr int kOverloadRequests = 25;

  bench::JsonReporter report("bench_server_load", "BENCH_server");
  bench::Table table({"dataset", "phase", "qps", "p50_us", "p99_us",
                      "served", "shed", "shed_rate"},
                     12);
  table.PrintHeader();

  for (const char* name : kDatasets) {
    auto g = datasets::MakeStandin(name, datasets::StandinScale::kSmall);
    if (!g.ok()) {
      std::printf("ERROR: standin %s: %s\n", name, g.status().ToString().c_str());
      return 1;
    }
    const uint64_t n = g.value().NumVertices();
    const uint64_t m = g.value().NumEdges();

    // --- steady phase: capacity above the client count, zero shedding ---
    {
      server::ServiceOptions service_options;
      service_options.max_inflight = kSteadyClients;
      server::SkylineService service(std::move(g.value()), service_options);
      server::ServerOptions server_options;
      server_options.session_threads = kSteadyClients;
      server::Server server(&service, server_options);
      if (auto s = server.Listen(); !s.ok()) {
        std::printf("ERROR: listen: %s\n", s.ToString().c_str());
        return 1;
      }
      std::thread serve([&] { server.Serve(); });
      // Warm the artifact cache so the measured loop is the steady state.
      (void)server::HttpGet(server.port(), kTarget);

      LoadResult steady = DriveLoad(server.port(), kTarget, kSteadyClients,
                                    kSteadyRequests);
      server.Shutdown();
      serve.join();
      if (steady.errors > 0 || steady.shed > 0) {
        std::printf("ERROR: steady phase on %s: %llu errors, %llu shed\n",
                    name, static_cast<unsigned long long>(steady.errors),
                    static_cast<unsigned long long>(steady.shed));
        return 1;
      }
      const double qps =
          steady.wall_s > 0 ? static_cast<double>(steady.ok) / steady.wall_s
                            : 0.0;
      const double p50 = bench::Percentile(steady.latencies_us, 0.50);
      const double p99 = bench::Percentile(steady.latencies_us, 0.99);
      table.PrintRow({name, "steady", bench::Fmt(qps, "%.0f"),
                      bench::Fmt(p50, "%.0f"), bench::Fmt(p99, "%.0f"),
                      bench::FmtU(steady.ok), bench::FmtU(steady.shed),
                      "0.00"});
      report.AddRow()
          .Str("dataset", name)
          .Str("phase", "steady")
          .U64("n", n)
          .U64("m", m)
          .U64("threads", threads)
          .U64("clients", kSteadyClients)
          .U64("requests", static_cast<uint64_t>(kSteadyClients) *
                               kSteadyRequests)
          .F64("qps", qps)
          .F64("p50_us", p50)
          .F64("p99_us", p99)
          .U64("served", steady.ok)
          .U64("shed", steady.shed)
          .F64("shed_rate", 0.0);
    }

    // --- overload phase: capacity 1, many clients; shedding expected ---
    {
      auto g2 = datasets::MakeStandin(name, datasets::StandinScale::kSmall);
      server::ServiceOptions service_options;
      service_options.max_inflight = 1;
      server::SkylineService service(std::move(g2.value()), service_options);
      server::ServerOptions server_options;
      server_options.session_threads = kOverloadClients;
      server::Server server(&service, server_options);
      if (auto s = server.Listen(); !s.ok()) {
        std::printf("ERROR: listen: %s\n", s.ToString().c_str());
        return 1;
      }
      std::thread serve([&] { server.Serve(); });
      (void)server::HttpGet(server.port(), kTarget);

      LoadResult overload = DriveLoad(server.port(), kTarget,
                                      kOverloadClients, kOverloadRequests);
      server.Shutdown();
      serve.join();
      if (overload.errors > 0) {
        std::printf("ERROR: overload phase on %s: %llu errors\n", name,
                    static_cast<unsigned long long>(overload.errors));
        return 1;
      }
      const uint64_t total = overload.ok + overload.shed;
      const double qps =
          overload.wall_s > 0 ? static_cast<double>(total) / overload.wall_s
                              : 0.0;
      const double shed_rate =
          total > 0 ? static_cast<double>(overload.shed) /
                          static_cast<double>(total)
                    : 0.0;
      const double p50 = bench::Percentile(overload.latencies_us, 0.50);
      const double p99 = bench::Percentile(overload.latencies_us, 0.99);
      table.PrintRow({name, "overload", bench::Fmt(qps, "%.0f"),
                      bench::Fmt(p50, "%.0f"), bench::Fmt(p99, "%.0f"),
                      bench::FmtU(overload.ok), bench::FmtU(overload.shed),
                      bench::Fmt(shed_rate, "%.2f")});
      report.AddRow()
          .Str("dataset", name)
          .Str("phase", "overload")
          .U64("n", n)
          .U64("m", m)
          .U64("threads", threads)
          .U64("clients", kOverloadClients)
          .U64("requests", static_cast<uint64_t>(kOverloadClients) *
                               kOverloadRequests)
          .F64("qps", qps)
          .F64("p50_us", p50)
          .F64("p99_us", p99)
          .U64("served", overload.ok)
          .U64("shed", overload.shed)
          .F64("shed_rate", shed_rate);
    }
  }

  std::printf(
      "\nExpectation: zero shedding in the steady phase, and a high shed rate\n"
      "under overload with shed responses far cheaper than served ones (the\n"
      "429 path never touches the engine).\n");
  return report.Write() ? 0 : 1;
}
