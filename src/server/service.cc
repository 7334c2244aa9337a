#include "server/service.h"

#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "graph/versioned_graph.h"
#include "core/engine_stats.h"
#include "core/flight_recorder.h"
#include "core/skyline_json.h"
#include "core/solver.h"
#include "persist/snapshot.h"
#include "util/execution_context.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/prom_export.h"
#include "util/strings.h"

namespace nsky::server {

namespace {

// Reads an optional non-negative integer query parameter. Returns false
// (with a message) on malformed values; leaves *out untouched when absent.
bool ReadUintParam(const HttpRequest& request, const char* name,
                   uint64_t* out, std::string* error) {
  auto it = request.query.find(name);
  if (it == request.query.end()) return true;
  if (!util::ParseUint64(it->second, out)) {
    *error = std::string("query parameter '") + name +
             "' must be a non-negative integer, got '" + it->second + "'";
    return false;
  }
  return true;
}

}  // namespace

SkylineService::SkylineService(graph::Graph g, ServiceOptions options)
    : options_(options),
      serving_(std::make_shared<ServingEngine>(
          std::make_unique<core::Engine>(std::move(g)))) {}

SkylineService::SkylineService(std::unique_ptr<core::Engine> engine,
                               ServiceOptions options)
    : options_(options) {
  NSKY_CHECK_MSG(engine != nullptr, "SkylineService requires an engine");
  serving_ = std::make_shared<ServingEngine>(std::move(engine));
}

std::shared_ptr<SkylineService::ServingEngine> SkylineService::Serving()
    const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return serving_;
}

util::Result<core::SnapshotInfo> SkylineService::Reload(
    const std::string& path, const util::ExecutionContext& ctx) {
  // One reload at a time; queries keep flowing on the current engine while
  // the new one loads and validates.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  util::Result<std::unique_ptr<core::Engine>> loaded =
      persist::Load(path, ctx);
  if (!loaded.ok()) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    return loaded.status();
  }
  core::SnapshotInfo info = *loaded.value()->snapshot_info();
  auto fresh = std::make_shared<ServingEngine>(std::move(loaded).value());
  std::shared_ptr<ServingEngine> old;
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    old = std::move(serving_);
    serving_ = std::move(fresh);
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  // `old` drops here; the engine it owns is destroyed now if idle, or when
  // the last in-flight request that pinned it completes.
  return info;
}

void SkylineService::StampLifecycle(core::EngineStats* stats) const {
  const uint64_t reloads = reloads_.load(std::memory_order_relaxed);
  const uint64_t failures = reload_failures_.load(std::memory_order_relaxed);
  const uint64_t fallbacks = cold_fallbacks_.load(std::memory_order_relaxed);
  if (reloads == 0 && failures == 0 && fallbacks == 0) return;
  core::ServingLifecycle lifecycle;
  lifecycle.reloads = reloads;
  lifecycle.reload_failures = failures;
  lifecycle.cold_fallbacks = fallbacks;
  stats->lifecycle = lifecycle;
}

HttpResponse SkylineService::ErrorResponse(const util::Status& status) {
  return ErrorResponseWithHttpStatus(util::HttpStatusFor(status.code()),
                                     status);
}

HttpResponse SkylineService::ErrorResponseWithHttpStatus(
    int http_status, const util::Status& status) {
  // Same shape as the CLI's failure document (tools/cli.cc EmitFailure):
  // scripts can parse one schema no matter which front end produced it.
  util::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "nsky.error.v1");
  w.KV("command", "serve");
  w.KV("code", util::StatusCodeName(status.code()));
  w.KV("message", status.message());
  w.KV("exit_code",
       static_cast<uint64_t>(util::CliExitCode(status.code())));
  w.EndObject();
  HttpResponse response;
  response.status = http_status;
  response.body = std::move(w).Take() + "\n";
  return response;
}

HttpResponse SkylineService::Handle(const HttpRequest& request) {
  if (request.path == "/v1/admin/reload") {
    if (request.method != "POST") {
      return ErrorResponseWithHttpStatus(
          405, util::Status::InvalidArgument(
                   "reload requires POST, got '" + request.method + "'"));
    }
    return HandleReload(request);
  }
  if (request.path == "/v1/edges") {
    if (request.method != "POST") {
      return ErrorResponseWithHttpStatus(
          405, util::Status::InvalidArgument(
                   "edge mutation requires POST, got '" + request.method +
                   "'"));
    }
    return HandleMutate(request);
  }
  if (request.method != "GET") {
    return ErrorResponseWithHttpStatus(
        405, util::Status::InvalidArgument("method '" + request.method +
                                           "' is not supported; use GET"));
  }
  if (request.path == "/v1/skyline") return HandleSkyline(request);
  if (request.path == "/v1/engine_stats") return HandleEngineStats();
  if (request.path == "/v1/queries") return HandleQueries(request);
  if (request.path == "/v1/metrics") return HandleMetrics();
  if (request.path == "/healthz") {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = "ok\n";
    // Snapshot-restored replicas advertise their artifact id so rollout
    // tooling can confirm which snapshot a fleet member is serving from.
    // The id lives on the engine, so a hot reload flips it with the swap.
    std::shared_ptr<ServingEngine> serving = Serving();
    if (const auto info = serving->engine->EffectiveSnapshotInfo();
        info.has_value()) {
      response.body += "snapshot " + info->id + "\n";
    }
    return response;
  }
  return ErrorResponse(
      util::Status::NotFound("no route for '" + request.path + "'"));
}

HttpResponse SkylineService::HandleReload(const HttpRequest& request) {
  auto it = request.query.find("snapshot");
  if (it == request.query.end() || it->second.empty()) {
    return ErrorResponse(util::Status::InvalidArgument(
        "reload requires a snapshot=PATH query parameter"));
  }
  const std::string& path = it->second;
  uint64_t timeout_ms = 0;
  uint64_t max_memory_mb = 0;
  std::string error;
  if (!ReadUintParam(request, "timeout_ms", &timeout_ms, &error) ||
      !ReadUintParam(request, "max_memory_mb", &max_memory_mb, &error)) {
    return ErrorResponse(util::Status::InvalidArgument(error));
  }
  util::ExecutionContext ctx;
  if (timeout_ms > 0) ctx.set_timeout_ms(timeout_ms);
  if (max_memory_mb > 0) ctx.set_byte_budget(max_memory_mb * 1024 * 1024);

  std::string previous_id;
  {
    // Effective info: a mutated replica reports the "+dirty@epoch<N>" id it
    // was actually serving under as the previous one.
    std::shared_ptr<ServingEngine> serving = Serving();
    if (const auto info = serving->engine->EffectiveSnapshotInfo();
        info.has_value()) {
      previous_id = info->id;
    }
  }

  util::Result<core::SnapshotInfo> swapped = Reload(path, ctx);
  if (!swapped.ok()) return ErrorResponse(swapped.status());

  util::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "nsky.reload.v1");
  w.Key("snapshot");
  w.BeginObject();
  w.KV("id", swapped.value().id);
  w.KV("format_version",
       static_cast<uint64_t>(swapped.value().format_version));
  w.KV("file_bytes", swapped.value().file_bytes);
  w.KV("sections", static_cast<uint64_t>(swapped.value().sections));
  w.KV("path", swapped.value().path);
  w.EndObject();
  w.KV("previous_id", previous_id);
  w.KV("reloads", reloads_.load(std::memory_order_relaxed));
  w.EndObject();
  HttpResponse response;
  response.body = std::move(w).Take() + "\n";
  return response;
}

HttpResponse SkylineService::HandleSkyline(const HttpRequest& request) {
  // Parse everything before admission: a malformed request must not count
  // against capacity.
  core::SolverOptions options;
  std::string algo = "filter-refine";
  if (auto it = request.query.find("algo"); it != request.query.end()) {
    algo = it->second;
  }
  if (auto parsed = core::ParseAlgorithm(algo)) {
    options.algorithm = *parsed;
  } else {
    return ErrorResponse(
        util::Status::InvalidArgument("unknown algo '" + algo + "'"));
  }
  uint64_t threads = 1;
  uint64_t repeat = 1;
  uint64_t timeout_ms = options_.default_timeout_ms;
  uint64_t max_memory_mb = options_.default_max_memory_mb;
  uint64_t stats = 0;
  std::string error;
  if (!ReadUintParam(request, "threads", &threads, &error) ||
      !ReadUintParam(request, "repeat", &repeat, &error) ||
      !ReadUintParam(request, "timeout_ms", &timeout_ms, &error) ||
      !ReadUintParam(request, "max_memory_mb", &max_memory_mb, &error) ||
      !ReadUintParam(request, "stats", &stats, &error)) {
    return ErrorResponse(util::Status::InvalidArgument(error));
  }
  if (threads > 4096) {
    return ErrorResponse(
        util::Status::InvalidArgument("threads must be in [0, 4096]"));
  }
  if (repeat == 0) repeat = 1;
  options.threads = static_cast<uint32_t>(threads);

  // Pin the serving epoch for the whole request: a concurrent hot reload
  // swaps the pointer, but this request keeps querying -- and accounting
  // against -- the engine it started with.
  std::shared_ptr<ServingEngine> serving = Serving();
  core::Engine* engine = serving->engine.get();

  // Admission control. Deterministic by construction: the decision depends
  // only on how many queries are admitted right now, never on timing inside
  // the engine. Shed requests are accounted by the engine so they show up
  // next to served ones.
  if (draining_.load(std::memory_order_relaxed)) {
    util::Status status = util::Status::Unavailable("server is draining");
    engine->RecordRejection(options, status);
    HttpResponse response = ErrorResponse(status);
    response.headers.emplace_back(
        "Retry-After", std::to_string(options_.retry_after_drain_s));
    return response;
  }
  uint32_t admitted = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    util::Status status = util::Status::ResourceExhausted(
        "over capacity: " + std::to_string(options_.max_inflight) +
        " queries already in flight");
    engine->RecordRejection(options, status);
    HttpResponse response = ErrorResponse(status);
    response.headers.emplace_back(
        "Retry-After", std::to_string(options_.retry_after_shed_s));
    return response;
  }

  core::QueryRequest query;
  query.options = options;
  if (timeout_ms > 0) query.context.set_timeout_ms(timeout_ms);
  if (max_memory_mb > 0) {
    query.context.set_byte_budget(max_memory_mb * 1024 * 1024);
  }
  // The document never renders the dominator array; skip materializing it.
  query.include_dominators = false;

  HttpResponse response;
  uint64_t epoch = 0;
  std::optional<core::SnapshotInfo> provenance;
  {
    std::shared_lock<util::WriterPreferringMutex> lock(serving->mu);
    core::QueryResponse result;
    for (uint64_t i = 0; i < repeat; ++i) {
      engine->Execute(query, &result);
      if (!result.ok()) break;
    }
    if (!result.ok()) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      return ErrorResponse(result.status);
    }
    core::SkylineDocOptions doc;
    doc.algorithm = algo;
    doc.engine = true;
    doc.repeat = repeat;
    doc.include_engine_docs = stats != 0;
    response.body =
        core::SkylineDocToJson(engine->graph(), result.result, doc, engine) +
        "\n";
    // Read under the same shared hold the body was computed under: a
    // mutation needs the cell exclusively, so the epoch header always names
    // the exact epoch this response was computed against.
    epoch = engine->epoch();
    provenance = engine->EffectiveSnapshotInfo();
  }
  // Provenance rides in a header, never the body: the body stays
  // byte-identical to the CLI's --engine --json output, and concurrency
  // tests match each response to the snapshot that produced it.
  if (provenance.has_value()) {
    response.headers.emplace_back("X-Nsky-Snapshot", provenance->id);
  }
  response.headers.emplace_back("X-Nsky-Epoch", std::to_string(epoch));
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return response;
}

HttpResponse SkylineService::HandleMutate(const HttpRequest& request) {
  // Parse and validate the whole batch before touching the engine: a
  // malformed document mutates nothing.
  std::string parse_error;
  std::optional<util::JsonValue> doc =
      util::JsonParse(request.body, &parse_error);
  if (!doc.has_value()) {
    return ErrorResponse(
        util::Status::InvalidArgument("mutation body: " + parse_error));
  }
  if (!doc->is_object()) {
    return ErrorResponse(util::Status::InvalidArgument(
        "mutation body must be a JSON object with an 'updates' array"));
  }
  const util::JsonValue* updates_value = doc->Find("updates");
  if (updates_value == nullptr || !updates_value->is_array()) {
    return ErrorResponse(util::Status::InvalidArgument(
        "mutation body requires an 'updates' array"));
  }
  std::vector<graph::EdgeUpdate> updates;
  updates.reserve(updates_value->array.size());
  for (size_t i = 0; i < updates_value->array.size(); ++i) {
    const util::JsonValue& entry = updates_value->array[i];
    const std::string where = "updates[" + std::to_string(i) + "]";
    if (!entry.is_object()) {
      return ErrorResponse(
          util::Status::InvalidArgument(where + " must be an object"));
    }
    graph::EdgeUpdate update;
    for (const char* key : {"u", "v"}) {
      const util::JsonValue* endpoint = entry.Find(key);
      if (endpoint == nullptr || !endpoint->is_number() ||
          endpoint->number < 0 ||
          endpoint->number != static_cast<double>(
                                  static_cast<uint64_t>(endpoint->number)) ||
          endpoint->number >= 4294967296.0) {
        return ErrorResponse(util::Status::InvalidArgument(
            where + "." + key + " must be an integer vertex id in [0, 2^32)"));
      }
      const graph::VertexId id =
          static_cast<graph::VertexId>(endpoint->number);
      if (key[0] == 'u') {
        update.u = id;
      } else {
        update.v = id;
      }
    }
    const util::JsonValue* op = entry.Find("op");
    if (op == nullptr || !op->is_string() ||
        (op->str != "insert" && op->str != "delete")) {
      return ErrorResponse(util::Status::InvalidArgument(
          where + ".op must be \"insert\" or \"delete\""));
    }
    update.insert = op->str == "insert";
    updates.push_back(update);
  }

  if (draining_.load(std::memory_order_relaxed)) {
    util::Status status = util::Status::Unavailable("server is draining");
    HttpResponse response = ErrorResponse(status);
    response.headers.emplace_back(
        "Retry-After", std::to_string(options_.retry_after_drain_s));
    return response;
  }

  // Pin the serving cell and hold it exclusively: running queries finish
  // first and new ones wait, so every query response is computed against
  // exactly one epoch.
  std::shared_ptr<ServingEngine> serving = Serving();
  core::Engine::MutationResult outcome;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  {
    std::unique_lock<util::WriterPreferringMutex> lock(serving->mu);
    outcome = serving->engine->ApplyUpdates(updates);
    vertices = serving->engine->graph().NumVertices();
    edges = serving->engine->graph().NumEdges();
  }

  util::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "nsky.mutate.v1");
  w.KV("command", "mutate");
  w.KV("applied", static_cast<uint64_t>(outcome.applied));
  w.KV("skipped", static_cast<uint64_t>(outcome.skipped));
  w.KV("epoch", outcome.epoch);
  w.KV("dirty_vertices", outcome.dirty_vertices);
  w.KV("repaired", outcome.repaired);
  w.KV("bulk_solve", outcome.bulk_solve);
  w.Key("graph");
  w.BeginObject();
  w.KV("vertices", vertices);
  w.KV("edges", edges);
  w.EndObject();
  w.EndObject();
  HttpResponse response;
  response.body = std::move(w).Take() + "\n";
  response.headers.emplace_back("X-Nsky-Epoch",
                                std::to_string(outcome.epoch));
  return response;
}

HttpResponse SkylineService::HandleEngineStats() {
  HttpResponse response;
  std::shared_ptr<ServingEngine> serving = Serving();
  core::EngineStats stats;
  {
    // StatsSnapshot may overlap queries but not a mutation, like a query.
    std::shared_lock<util::WriterPreferringMutex> lock(serving->mu);
    stats = serving->engine->StatsSnapshot();
  }
  StampLifecycle(&stats);
  response.body = core::EngineStatsToJson(stats) + "\n";
  return response;
}

HttpResponse SkylineService::HandleQueries(const HttpRequest& request) {
  uint64_t max = core::FlightRecorder::kDefaultCapacity;
  std::string error;
  if (!ReadUintParam(request, "max", &max, &error)) {
    return ErrorResponse(util::Status::InvalidArgument(error));
  }
  HttpResponse response;
  // The flight recorder is safe against concurrent writers; no lock.
  std::shared_ptr<ServingEngine> serving = Serving();
  response.body = serving->engine->RecentQueriesJson(max) + "\n";
  return response;
}

HttpResponse SkylineService::HandleMetrics() {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  std::string body =
      util::metrics::SnapshotToPrometheus(util::metrics::Snap());
  std::shared_ptr<ServingEngine> serving = Serving();
  core::EngineStats stats;
  {
    std::shared_lock<util::WriterPreferringMutex> lock(serving->mu);
    stats = serving->engine->StatsSnapshot();
  }
  StampLifecycle(&stats);
  body += core::EngineStatsToPrometheus(stats);
  response.body = std::move(body);
  return response;
}

}  // namespace nsky::server
