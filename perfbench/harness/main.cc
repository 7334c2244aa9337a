// perfbench: the serving benchmark's measuring program.
//
//   perfbench gen --workload W --seed N --dir D
//       Writes workload W's inputs for seed N into directory D.
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--trace-out FILE]
//       Serves and measures W on the inputs in D. Prints one row of
//       metrics by name and unit, then, as the last line, the JSON result
//       {"correct","attempted","failed","metrics"}. Exits 1 when a request
//       failed, an output check failed or the run was invalid.
//
// perfbench/run.py builds this program and runs gen, then run.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "inputs.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace {

using namespace nsky::perfbench;

int Usage() {
  std::cerr << "usage: perfbench gen --workload W --seed N --dir D\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D [--trace-out FILE]\n";
  return 2;
}

void PrintResult(const WorkloadSpec& w, const RunOptions& options,
                 const RunResult& r) {
  std::cout.precision(10);
  std::cout << w.name << " (seed " << options.seed << ", " << options.seconds
            << " s, " << (options.trace ? "traced" : "untraced") << ")\n";
  for (const std::string& line : r.info) std::cout << "  " << line << "\n";
  std::cout << "  row:";
  for (const Metric& m : r.metrics) {
    std::cout << " " << m.name << "=" << m.value << " " << m.unit << ";";
  }
  const double error_rate =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::cout << " attempted=" << r.attempted << "; failed=" << r.failed
            << "; error_rate=" << error_rate << "\n";
  for (const Metric& m : r.metrics) {
    if (!m.note.empty()) std::cout << "  " << m.name << ": " << m.note << "\n";
  }
  for (const std::string& p : r.problems) std::cout << "  PROBLEM: " << p << "\n";

  nsky::util::JsonWriter json;
  json.BeginObject();
  json.KV("correct", r.correct);
  json.KV("attempted", r.attempted);
  json.KV("failed", r.failed);
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : r.metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.KV("value", m.value);
    json.KV("unit", m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::cout << std::move(json).Take() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  const WorkloadSpec* w = FindWorkload(args["workload"]);
  if (w == nullptr || args["dir"].empty()) return Usage();
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);

  if (command == "gen") {
    InputSpec spec;
    spec.standin = w->standin;
    spec.seed = seed;
    spec.snapshot = w->from_snapshot;
    if (auto s = GenerateInputs(spec, args["dir"]); !s.ok()) {
      std::cerr << "perfbench gen: " << s.ToString() << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();
  RunOptions options;
  options.workload = w;
  options.seed = seed;
  options.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  options.trace = args["trace"] == "1";
  options.input_dir = args["dir"];
  options.trace_out = args["trace-out"];
  if (options.seconds <= 0) return Usage();
  const RunResult result = RunWorkload(options);
  PrintResult(*w, options, result);
  return result.correct ? 0 : 1;
}
