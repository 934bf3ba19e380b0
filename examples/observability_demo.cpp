// Observability demo: watch a full IR -> deploy lifecycle through the
// tracing + metrics layer (docs/OBSERVABILITY.md).
//
// Runs the retail domain end to end with the span recorder on, then shows
// the three views the obs layer gives you: the recorded span tree (what a
// trace viewer would render), a few headline metrics, and the exported
// telemetry files (trace.json for Perfetto / chrome://tracing,
// metrics.prom for Prometheus tooling, metrics.json for scripts).
//
// For the table-formatted per-stage report, see tools/trace_report.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/quarry.h"
#include "datagen/retail.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using quarry::core::Quarry;
using quarry::obs::MetricsRegistry;
using quarry::obs::SpanRecord;
using quarry::obs::TraceRecorder;

int Fail(const quarry::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp/quarry_telemetry";

  // Source + semantic layers, as in the other examples.
  quarry::storage::Database source("retail");
  quarry::datagen::RetailConfig config;
  config.scale_factor = 0.01;
  if (auto s = quarry::datagen::PopulateRetail(&source, config); !s.ok()) {
    return Fail(s);
  }
  auto q = Quarry::Create(quarry::datagen::BuildRetailOntology(),
                          quarry::datagen::BuildRetailMappings(), &source);
  if (!q.ok()) return Fail(q.status());

  // Everything from here on is recorded.
  Quarry::Telemetry().StartTracing();

  auto outcome = (*q)->AddRequirementFromQuery(
      "ANALYZE turnover ON Sale "
      "MEASURE turnover = Sale.sl_amount * (1 - Sale.sl_discount) SUM "
      "BY Product.pr_category, Store.st_city "
      "WHERE Customer.cu_segment = 'LOYALTY'");
  if (!outcome.ok()) return Fail(outcome.status());

  auto report = (*q)->DeployServing();
  if (!report.ok()) return Fail(report.status());
  if (!report->success) {
    std::cerr << "deployment did not commit\n";
    return 1;
  }

  Quarry::Telemetry().StopTracing();

  // View 1: the span tree. Spans carry a per-thread nesting depth, so the
  // indentation below is exactly what Perfetto renders as nested tracks.
  std::vector<SpanRecord> spans = TraceRecorder::Instance().Snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  std::printf("-- trace: %zu spans --\n", spans.size());
  for (const SpanRecord& span : spans) {
    std::printf("%*s%-*s %9.1f us\n", 2 * span.depth, "",
                40 - 2 * static_cast<int>(span.depth), span.name.c_str(),
                span.dur_us);
  }

  // View 2: a few headline metrics, straight from the registry.
  MetricsRegistry& reg = MetricsRegistry::Instance();
  std::printf("\n-- metrics (excerpt of %zu families) --\n",
              reg.FamilyNames().size());
  std::printf("rows into operators : %lld\n",
              static_cast<long long>(
                  reg.counter("quarry_etl_rows_in_total").value()));
  std::printf("rows out of operators: %lld\n",
              static_cast<long long>(
                  reg.counter("quarry_etl_rows_out_total").value()));
  std::printf("design complexity    : %.0f (naive union %.0f)\n",
              reg.gauge("quarry_integrator_md_complexity").value(),
              reg.gauge("quarry_integrator_md_complexity_naive_union")
                  .value());
  std::printf("deploys committed    : %lld\n",
              static_cast<long long>(
                  reg.counter("quarry_deploy_success_total").value()));

  // View 3: exported files.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (auto s = Quarry::Telemetry().WriteTo(out_dir); !s.ok()) return Fail(s);
  std::printf(
      "\nwrote %s/{trace.json,metrics.prom,metrics.json}\n"
      "open trace.json at https://ui.perfetto.dev (or chrome://tracing)\n",
      out_dir.c_str());
  return 0;
}
