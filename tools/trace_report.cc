// trace_report: runs the full retail pipeline (interpret -> integrate ->
// deploy -> refresh) with tracing enabled, prints a per-stage latency/row
// table, and exports the run as Chrome trace JSON + Prometheus text
// (docs/OBSERVABILITY.md).
//
// Usage: trace_report [output-dir] [--request <id>]
//   output-dir (default ".") receives trace.json, metrics.prom, metrics.json
//   and requests.jsonl; a metadata/ subdirectory is created there to exercise
//   the WAL-backed durable repository so its fsync histogram has data.
//   --request <id> narrows the per-stage table to spans attributed to that
//   request id (see the per-request rollup the tool prints for valid ids).
//
// Load the trace in chrome://tracing or https://ui.perfetto.dev.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/quarry.h"
#include "datagen/retail.h"
#include "obs/trace.h"

namespace {

using quarry::core::Quarry;

struct StageRow {
  int count = 0;
  double total_ms = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  bool has_rows = false;
};

int64_t AttrInt(const quarry::obs::SpanRecord& span, const std::string& key) {
  for (const auto& attr : span.attrs) {
    if (attr.key == key) return std::atoll(attr.value.c_str());
  }
  return 0;
}

std::string AttrStr(const quarry::obs::SpanRecord& span,
                    const std::string& key) {
  for (const auto& attr : span.attrs) {
    if (attr.key == key) return attr.value;
  }
  return "";
}

bool HasAttr(const quarry::obs::SpanRecord& span, const std::string& key) {
  return std::any_of(span.attrs.begin(), span.attrs.end(),
                     [&](const auto& attr) { return attr.key == key; });
}

int Fail(const quarry::Status& status, const char* what) {
  std::fprintf(stderr, "trace_report: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  long long request_filter = -1;
  bool out_dir_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--request") == 0 && i + 1 < argc) {
      request_filter = std::atoll(argv[++i]);
    } else if (!out_dir_set) {
      out_dir = argv[i];
      out_dir_set = true;
    } else {
      std::fprintf(stderr, "usage: trace_report [output-dir] [--request N]\n");
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string meta_dir =
      (std::filesystem::path(out_dir) / "metadata").string();
  std::filesystem::create_directories(meta_dir, ec);
  if (ec) {
    std::fprintf(stderr, "trace_report: cannot create '%s'\n",
                 meta_dir.c_str());
    return 1;
  }

  quarry::storage::Database source;
  quarry::datagen::RetailConfig config;
  if (quarry::Status populated =
          quarry::datagen::PopulateRetail(&source, config);
      !populated.ok()) {
    return Fail(populated, "populating retail source");
  }

  auto q = Quarry::Create(quarry::datagen::BuildRetailOntology(),
                          quarry::datagen::BuildRetailMappings(), &source);
  if (!q.ok()) return Fail(q.status(), "creating Quarry");

  // Everything from here on is recorded: spans land in the trace buffer,
  // and the WAL / docstore / integrator / executor metrics accumulate.
  Quarry::Telemetry().StartTracing();

  if (quarry::Status durable = (*q)->EnableDurability(meta_dir);
      !durable.ok()) {
    return Fail(durable, "enabling durable metadata");
  }

  const char* queries[] = {
      "ANALYZE turnover ON Sale "
      "MEASURE turnover = Sale.sl_amount * (1 - Sale.sl_discount) SUM "
      "BY Product.pr_category, Store.st_city "
      "WHERE Customer.cu_segment = 'LOYALTY'",
      "ANALYZE units_by_region ON Sale "
      "MEASURE units = Sale.sl_units SUM BY Region.rr_name",
  };
  for (const char* query : queries) {
    auto outcome = (*q)->AddRequirementFromQuery(query);
    if (!outcome.ok()) return Fail(outcome.status(), "adding requirement");
  }

  // Publish a generation, refresh it, and run profiled cube queries so the
  // trace and the request log carry request-scoped serving spans too.
  auto deployed = (*q)->DeployServing();
  if (!deployed.ok()) return Fail(deployed.status(), "deploying");
  if (!deployed->success) {
    return Fail(deployed->failure->cause, "deployment failed");
  }
  auto refreshed = (*q)->RefreshServing();
  if (!refreshed.ok()) return Fail(refreshed.status(), "refreshing");

  // Two demo tenants so the serving spans carry tenant attribution and the
  // per-tenant rollup below has rows (docs/ROBUSTNESS.md §11).
  quarry::core::TenantQuota analytics;
  analytics.priority = quarry::Priority::kHigh;
  quarry::core::TenantQuota batch;
  batch.priority = quarry::Priority::kLow;
  batch.rate_per_sec = 100.0;
  if (quarry::Status s = (*q)->RegisterTenant("analytics", analytics);
      !s.ok()) {
    return Fail(s, "registering tenant");
  }
  if (quarry::Status s = (*q)->RegisterTenant("batch", batch); !s.ok()) {
    return Fail(s, "registering tenant");
  }

  quarry::olap::CubeQuery cube;
  cube.fact = "fact_table_turnover";
  cube.group_by = {"pr_category"};
  cube.measures.push_back({"turnover", quarry::md::AggFunc::kSum, "total"});
  quarry::core::QueryResult last_query;
  const char* tenants[] = {"analytics", "batch", "analytics"};
  for (const char* tenant : tenants) {
    quarry::ExecContext ctx;
    ctx.set_tenant(tenant);
    auto result = (*q)->SubmitQuery(cube, {}, &ctx);
    if (!result.ok()) return Fail(result.status(), "serving query");
    last_query = std::move(*result);
  }

  Quarry::Telemetry().StopTracing();

  // ---- per-stage table ----------------------------------------------------
  std::vector<quarry::obs::SpanRecord> spans =
      Quarry::Telemetry().tracer.Snapshot();
  std::map<std::string, StageRow> stages;
  for (const auto& span : spans) {
    if (request_filter >= 0 &&
        (!HasAttr(span, "request_id") ||
         AttrInt(span, "request_id") != request_filter)) {
      continue;
    }
    StageRow& row = stages[span.name];
    ++row.count;
    row.total_ms += span.dur_us / 1000.0;
    if (HasAttr(span, "rows_out")) {
      row.has_rows = true;
      row.rows_in += AttrInt(span, "rows_in");
      row.rows_out += AttrInt(span, "rows_out");
    }
  }
  if (request_filter >= 0) {
    std::printf("spans attributed to request %lld\n", request_filter);
  }
  std::printf("%-34s %6s %12s %10s %10s\n", "stage", "count", "total ms",
              "rows in", "rows out");
  for (const auto& [name, row] : stages) {
    std::printf("%-34s %6d %12.3f ", name.c_str(), row.count, row.total_ms);
    if (row.has_rows) {
      std::printf("%10lld %10lld\n", static_cast<long long>(row.rows_in),
                  static_cast<long long>(row.rows_out));
    } else {
      std::printf("%10s %10s\n", "-", "-");
    }
  }
  std::printf("\n%zu spans recorded (%lld dropped)\n", spans.size(),
              static_cast<long long>(Quarry::Telemetry().tracer.dropped()));

  // ---- per-request latency rollup ----------------------------------------
  // Every Quarry entry point mints a request id and stamps it on its spans;
  // grouping by that id gives wall time and span fan-out per request. Use
  // --request <id> to re-run with the stage table narrowed to one of these.
  struct RequestRollup {
    int spans = 0;
    double total_ms = 0;
    std::string root;  // widest span = the entry-point stage
    double root_ms = -1;
  };
  std::map<long long, RequestRollup> requests;
  for (const auto& span : spans) {
    if (!HasAttr(span, "request_id")) continue;
    RequestRollup& row = requests[AttrInt(span, "request_id")];
    ++row.spans;
    row.total_ms += span.dur_us / 1000.0;
    if (span.dur_us / 1000.0 > row.root_ms) {
      row.root_ms = span.dur_us / 1000.0;
      row.root = span.name;
    }
  }
  std::printf("\n%-10s %-26s %6s %12s %12s\n", "request", "entry stage",
              "spans", "span ms", "entry ms");
  for (const auto& [id, row] : requests) {
    std::printf("%-10lld %-26s %6d %12.3f %12.3f\n", id, row.root.c_str(),
                row.spans, row.total_ms, row.root_ms);
  }

  // ---- per-tenant rollup --------------------------------------------------
  // Tenant-attributed entry points stamp a "tenant" attr on their spans;
  // grouping by it shows each tenant's request count and span wall time —
  // the trace-side view of /tenantz (docs/ROBUSTNESS.md §11).
  struct TenantRollup {
    int spans = 0;
    double total_ms = 0;
    std::map<long long, int> request_ids;
  };
  std::map<std::string, TenantRollup> tenants_seen;
  for (const auto& span : spans) {
    const std::string tenant = AttrStr(span, "tenant");
    if (tenant.empty()) continue;
    TenantRollup& row = tenants_seen[tenant];
    ++row.spans;
    row.total_ms += span.dur_us / 1000.0;
    if (HasAttr(span, "request_id")) {
      ++row.request_ids[AttrInt(span, "request_id")];
    }
  }
  std::printf("\n%-14s %9s %6s %12s\n", "tenant", "requests", "spans",
              "span ms");
  for (const auto& [tenant, row] : tenants_seen) {
    std::printf("%-14s %9zu %6d %12.3f\n", tenant.c_str(),
                row.request_ids.size(), row.spans, row.total_ms);
  }

  if (!last_query.profile.roots.empty()) {
    std::printf("\nEXPLAIN ANALYZE of the last serving query:\n%s",
                last_query.profile.ToText().c_str());
  }

  if (quarry::Status written = Quarry::Telemetry().WriteTo(out_dir);
      !written.ok()) {
    return Fail(written, "exporting telemetry");
  }
  std::printf("wrote %s/trace.json, metrics.prom, metrics.json, "
              "requests.jsonl\n",
              out_dir.c_str());
  return 0;
}
