#include "core/http_telemetry.h"

#include <chrono>

#include "core/quarry.h"
#include "json/json.h"
#include "obs/request_log.h"

namespace quarry::core {
namespace {

json::Value LaneStatus(const AdmissionController& lane) {
  json::Object obj;
  obj.emplace_back("lane", lane.options().lane);
  obj.emplace_back("in_flight", static_cast<int64_t>(lane.in_flight()));
  obj.emplace_back("queue_depth", static_cast<int64_t>(lane.queue_depth()));
  obj.emplace_back("max_in_flight",
                   static_cast<int64_t>(lane.options().max_in_flight));
  obj.emplace_back("max_queue_depth",
                   static_cast<int64_t>(lane.options().max_queue_depth));
  return json::Value(std::move(obj));
}

json::Value WarehouseStatus(const storage::GenerationStore& warehouse) {
  const storage::GenerationStoreStats stats = warehouse.stats();
  json::Object obj;
  // Reserved, here and in /statusz: GCC 12 reports a false -Warray-bounds
  // on the first emplace_back into an empty json::Object.
  obj.reserve(8);
  obj.emplace_back("serving", warehouse.has_generation());
  obj.emplace_back("current_generation",
                   static_cast<int64_t>(warehouse.current_generation()));
  obj.emplace_back("published", static_cast<int64_t>(stats.published));
  obj.emplace_back("publish_failures",
                   static_cast<int64_t>(stats.publish_failures));
  obj.emplace_back("retired", static_cast<int64_t>(stats.retired));
  obj.emplace_back("retires_deferred",
                   static_cast<int64_t>(stats.retires_deferred));
  obj.emplace_back("live_generations",
                   static_cast<int64_t>(stats.live_generations));
  obj.emplace_back("active_pins", static_cast<int64_t>(stats.active_pins));
  return json::Value(std::move(obj));
}

}  // namespace

Result<std::unique_ptr<obs::HttpExporter>> StartTelemetryServer(
    Quarry* quarry, obs::HttpExporterOptions options) {
  if (quarry == nullptr) {
    return Status::InvalidArgument("quarry instance is null");
  }
  auto exporter = std::make_unique<obs::HttpExporter>(std::move(options));
  const auto started = std::chrono::steady_clock::now();

  // /healthz — is this instance serving? 200 while a warehouse generation
  // is published (readers get answers), 503 before the first DeployServing
  // or after a cold start whose recovery found nothing intact. The body
  // carries the "why": generation, publish failures, recovery report.
  exporter->AddHandler("/healthz", [quarry](const obs::HttpExporter::Request&) {
    const storage::GenerationStore& warehouse = quarry->warehouse();
    const bool serving = warehouse.has_generation();
    json::Object obj;
    obj.emplace_back("status", serving ? "ok" : "unavailable");
    obj.emplace_back("serving", serving);
    obj.emplace_back("serving_generation",
                     static_cast<int64_t>(warehouse.current_generation()));
    obj.emplace_back(
        "publish_failures",
        static_cast<int64_t>(warehouse.stats().publish_failures));
    obj.emplace_back("recovery", quarry->recovery_report().ToString());
    obs::HttpExporter::Response resp;
    resp.code = serving ? 200 : 503;
    if (!serving) resp.retry_after_seconds = 1;
    resp.content_type = "application/json";
    resp.body = json::Write(json::Value(std::move(obj)));
    return resp;
  });

  // /tenantz — per-tenant quota / usage / shed / breaker state
  // (docs/ROBUSTNESS.md §11): one row per registered tenant, straight from
  // TenantRegistry::Snapshot().
  exporter->AddHandler(
      "/tenantz", [quarry](const obs::HttpExporter::Request&) {
        json::Array tenants;
        for (const TenantStatus& t : quarry->tenants().Snapshot()) {
          json::Object quota;
          quota.emplace_back("priority", PriorityName(t.quota.priority));
          quota.emplace_back("rate_per_sec", t.quota.rate_per_sec);
          quota.emplace_back("burst", t.quota.burst);
          quota.emplace_back("max_in_flight",
                             static_cast<int64_t>(t.quota.max_in_flight));

          json::Object shed;
          shed.emplace_back("rate", t.shed_rate_total);
          shed.emplace_back("in_flight", t.shed_in_flight_total);
          shed.emplace_back("breaker", t.shed_breaker_total);

          json::Object breaker;
          breaker.emplace_back("state", BreakerStateName(t.breaker));
          breaker.emplace_back("failure_threshold",
                               static_cast<int64_t>(
                                   t.quota.breaker_failure_threshold));
          breaker.emplace_back("consecutive_failures",
                               static_cast<int64_t>(t.consecutive_failures));
          breaker.emplace_back("open_remaining_millis",
                               t.breaker_open_remaining_millis);
          breaker.emplace_back("trips_total", t.breaker_trips_total);

          json::Object row;
          row.emplace_back("id", t.id);
          row.emplace_back("quota", json::Value(std::move(quota)));
          row.emplace_back("tokens", t.tokens);
          row.emplace_back("in_flight", static_cast<int64_t>(t.in_flight));
          row.emplace_back("requests_total", t.requests_total);
          row.emplace_back("admitted_total", t.admitted_total);
          row.emplace_back("shed_total", json::Value(std::move(shed)));
          row.emplace_back("breaker", json::Value(std::move(breaker)));
          tenants.push_back(json::Value(std::move(row)));
        }
        json::Object obj;
        obj.emplace_back("tenants", json::Value(std::move(tenants)));
        obs::HttpExporter::Response resp;
        resp.content_type = "application/json";
        resp.body = json::Write(json::Value(std::move(obj)));
        return resp;
      });

  // /statusz — one page of process vitals: build configuration, uptime,
  // admission-lane load, warehouse stats, request-log totals.
  exporter->AddHandler(
      "/statusz", [quarry, started](const obs::HttpExporter::Request&) {
        json::Object build;
        build.reserve(4);
        build.emplace_back("compiler", __VERSION__);
        build.emplace_back("cpp_standard", static_cast<int64_t>(__cplusplus));
#ifdef NDEBUG
        build.emplace_back("assertions", false);
#else
        build.emplace_back("assertions", true);
#endif
#ifdef QUARRY_DISABLE_TRACING
        build.emplace_back("tracing_compiled_out", true);
#else
        build.emplace_back("tracing_compiled_out", false);
#endif

        json::Object lanes;
        lanes.reserve(2);
        lanes.emplace_back("design", LaneStatus(quarry->admission()));
        lanes.emplace_back("query", LaneStatus(quarry->query_admission()));

        const obs::RequestLog& log = obs::RequestLog::Instance();
        json::Object requests;
        requests.reserve(2);
        requests.emplace_back("total_recorded",
                              static_cast<int64_t>(log.total_recorded()));
        requests.emplace_back(
            "slow_threshold_micros",
            static_cast<int64_t>(log.slow_threshold_micros()));

        json::Object obj;
        obj.reserve(5);
        obj.emplace_back("build", json::Value(std::move(build)));
        obj.emplace_back(
            "uptime_seconds",
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count());
        obj.emplace_back("admission", json::Value(std::move(lanes)));
        obj.emplace_back("warehouse", WarehouseStatus(quarry->warehouse()));
        obj.emplace_back("requests", json::Value(std::move(requests)));
        obs::HttpExporter::Response resp;
        resp.content_type = "application/json";
        resp.body = json::Write(json::Value(std::move(obj)));
        return resp;
      });

  std::string error;
  if (!exporter->Start(&error)) {
    return Status::ExecutionError("telemetry HTTP server failed to start: " +
                                  error);
  }
  return exporter;
}

}  // namespace quarry::core
