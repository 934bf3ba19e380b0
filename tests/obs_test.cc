// Tests for the observability layer (docs/OBSERVABILITY.md): span nesting
// across threads, histogram bucket boundaries, Chrome-trace JSON round-trip
// through the in-repo JSON parser, Prometheus exposition format, and an
// end-to-end pipeline run asserting spans + metrics show up.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/quarry.h"
#include "datagen/retail.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Instance().Stop();
    MetricsRegistry::Instance().ResetForTest();
  }
  void TearDown() override { TraceRecorder::Instance().Stop(); }
};

[[maybe_unused]] const SpanRecord* FindSpan(
    const std::vector<SpanRecord>& spans, const std::string& name) {
  auto it = std::find_if(spans.begin(), spans.end(), [&](const SpanRecord& s) {
    return s.name == name;
  });
  return it == spans.end() ? nullptr : &*it;
}

// ---- spans ----------------------------------------------------------------
// Compiled out under -DQUARRY_DISABLE_TRACING: every QUARRY_SPAN is a no-op
// there, so nothing these tests assert can be recorded. The metrics tests
// below run in both configurations.
#ifndef QUARRY_DISABLE_TRACING

TEST_F(ObsTest, SpansRecordNestingAndAttributes) {
  TraceRecorder::Instance().Start();
  {
    QUARRY_NAMED_SPAN(outer, "outer");
    QUARRY_SPAN_ATTR(outer, "ir_id", "ir_revenue");
    {
      QUARRY_NAMED_SPAN(inner, "inner");
      QUARRY_SPAN_ATTR(inner, "rows_out", int64_t{42});
    }
  }
  TraceRecorder::Instance().Stop();

  std::vector<SpanRecord> spans = TraceRecorder::Instance().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans complete innermost-first.
  const SpanRecord* inner = FindSpan(spans, "inner");
  const SpanRecord* outer = FindSpan(spans, "outer");
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us + 1e-3);
  ASSERT_EQ(outer->attrs.size(), 1u);
  EXPECT_EQ(outer->attrs[0].key, "ir_id");
  EXPECT_EQ(outer->attrs[0].value, "ir_revenue");
  ASSERT_EQ(inner->attrs.size(), 1u);
  EXPECT_EQ(inner->attrs[0].value, "42");
}

TEST_F(ObsTest, SpanDepthIsPerThread) {
  TraceRecorder::Instance().Start();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      QUARRY_SPAN("thread.outer");
      QUARRY_SPAN("thread.inner");
    });
  }
  for (std::thread& t : threads) t.join();
  TraceRecorder::Instance().Stop();

  std::vector<SpanRecord> spans = TraceRecorder::Instance().Snapshot();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  std::set<uint32_t> tids;
  for (const SpanRecord& span : spans) {
    tids.insert(span.tid);
    // Each thread nests independently: outer at depth 0, inner at 1,
    // regardless of interleaving.
    EXPECT_EQ(span.depth, span.name == "thread.outer" ? 0u : 1u);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(ObsTest, FullBufferDropsNewestAndCounts) {
  // The buffer only ever grows (Start() leaks smaller arrays rather than
  // shrink under live writers), so fill the default capacity instead of
  // asking for a tiny one.
  constexpr size_t kCapacity = TraceRecorder::kDefaultCapacity;
  TraceRecorder::Instance().Start(kCapacity);
  for (size_t i = 0; i < kCapacity + 10; ++i) {
    QUARRY_SPAN("spill");
  }
  TraceRecorder::Instance().Stop();
  EXPECT_EQ(TraceRecorder::Instance().size(), kCapacity);
  EXPECT_EQ(TraceRecorder::Instance().dropped(), 10);
  // The drop is also a metric (the one place obs self-reports).
  EXPECT_EQ(MetricsRegistry::Instance()
                .counter("quarry_trace_spans_dropped_total")
                .value(),
            10);
}

TEST_F(ObsTest, DisabledRecorderCostsNothingAndRecordsNothing) {
  // Start + Stop leaves an empty, disabled buffer.
  TraceRecorder::Instance().Start();
  TraceRecorder::Instance().Stop();
  {
    QUARRY_NAMED_SPAN(span, "ignored");
    QUARRY_SPAN_ATTR(span, "key", "value");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(TraceRecorder::Instance().size(), 0u);
}

TEST_F(ObsTest, ChromeTraceJsonRoundTripsThroughParser) {
  TraceRecorder::Instance().Start();
  {
    QUARRY_NAMED_SPAN(span, "stage \"one\"\n");  // exercises escaping
    QUARRY_SPAN_ATTR(span, "rows_out", int64_t{7});
  }
  TraceRecorder::Instance().Stop();

  auto parsed = json::Parse(TraceRecorder::Instance().ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->is_object());
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 1u);
  const json::Value& event = events->as_array()[0];
  EXPECT_EQ(event.GetString("name"), "stage \"one\"\n");
  EXPECT_EQ(event.GetString("ph"), "X");
  const json::Value* ts = event.Find("ts");
  ASSERT_NE(ts, nullptr);
  EXPECT_TRUE(ts->is_number());
  const json::Value* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->GetString("rows_out"), "7");
}

#endif  // QUARRY_DISABLE_TRACING

// ---- metrics --------------------------------------------------------------

TEST_F(ObsTest, CounterAndGaugeBasics) {
  Counter& counter =
      MetricsRegistry::Instance().counter("obs_test_events_total", "help");
  counter.Increment();
  counter.Increment(4);
  EXPECT_EQ(counter.value(), 5);
  // Same (family, labels) yields the same instance.
  EXPECT_EQ(&MetricsRegistry::Instance().counter("obs_test_events_total"),
            &counter);

  Gauge& gauge = MetricsRegistry::Instance().gauge("obs_test_gauge");
  gauge.Set(2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST_F(ObsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Histogram& histogram = MetricsRegistry::Instance().histogram(
      "obs_test_latency", "help", {1.0, 10.0, 100.0});
  histogram.Observe(0.5);    // -> le=1
  histogram.Observe(1.0);    // boundary: inclusive -> le=1
  histogram.Observe(1.001);  // -> le=10
  histogram.Observe(10.0);   // boundary -> le=10
  histogram.Observe(99.9);   // -> le=100
  histogram.Observe(250.0);  // -> +Inf
  EXPECT_EQ(histogram.count(), 6);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 99.9 + 250.0);
  EXPECT_EQ(histogram.bucket_count(0), 2);  // le=1
  EXPECT_EQ(histogram.bucket_count(1), 2);  // le=10
  EXPECT_EQ(histogram.bucket_count(2), 1);  // le=100
  EXPECT_EQ(histogram.bucket_count(3), 1);  // +Inf
}

TEST_F(ObsTest, ExponentialBucketsShape) {
  std::vector<double> bounds = ExponentialBuckets(1.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
  EXPECT_DOUBLE_EQ(bounds[3], 64.0);
}

TEST_F(ObsTest, PrometheusTextFormat) {
  MetricsRegistry::Instance()
      .counter("obs_fmt_total", "Things counted", {{"kind", "a\"b"}})
      .Increment(3);
  MetricsRegistry::Instance().gauge("obs_fmt_gauge", "A level").Set(1.25);
  MetricsRegistry::Instance()
      .histogram("obs_fmt_micros", "A latency", {1.0, 10.0})
      .Observe(5.0);
  std::string text = MetricsRegistry::Instance().PrometheusText();

  EXPECT_NE(text.find("# HELP obs_fmt_total Things counted"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_fmt_total counter"), std::string::npos);
  // Label values escape quotes.
  EXPECT_NE(text.find("obs_fmt_total{kind=\"a\\\"b\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_fmt_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_fmt_gauge 1.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_fmt_micros histogram"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("obs_fmt_micros_bucket{le=\"1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("obs_fmt_micros_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_fmt_micros_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_fmt_micros_sum 5"), std::string::npos);
  EXPECT_NE(text.find("obs_fmt_micros_count 1"), std::string::npos);
}

TEST_F(ObsTest, JsonSnapshotParses) {
  MetricsRegistry::Instance().counter("obs_snap_total").Increment();
  MetricsRegistry::Instance()
      .histogram("obs_snap_micros", "", {1.0})
      .Observe(0.5);
  auto parsed = json::Parse(MetricsRegistry::Instance().JsonSnapshot());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const json::Value* counter = parsed->Find("obs_snap_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->as_int(), 1);
  const json::Value* histogram = parsed->Find("obs_snap_micros");
  ASSERT_NE(histogram, nullptr);
  ASSERT_TRUE(histogram->is_object());
  EXPECT_EQ(histogram->Find("count")->as_int(), 1);
}

TEST_F(ObsTest, ResetForTestZeroesButKeepsInstances) {
  Counter& counter = MetricsRegistry::Instance().counter("obs_reset_total");
  counter.Increment(9);
  MetricsRegistry::Instance().ResetForTest();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(&MetricsRegistry::Instance().counter("obs_reset_total"),
            &counter);
}

// ---- end-to-end -----------------------------------------------------------

TEST_F(ObsTest, FullPipelineEmitsSpansAndMetrics) {
  storage::Database source;
  datagen::RetailConfig config;
  config.scale_factor = 0.002;  // keep the test fast
  ASSERT_TRUE(datagen::PopulateRetail(&source, config).ok());
  auto quarry = core::Quarry::Create(datagen::BuildRetailOntology(),
                                     datagen::BuildRetailMappings(), &source);
  ASSERT_TRUE(quarry.ok()) << quarry.status();

  core::Quarry::Telemetry().StartTracing();
  auto outcome = (*quarry)->AddRequirementFromQuery(
      "ANALYZE turnover ON Sale "
      "MEASURE turnover = Sale.sl_amount SUM BY Product.pr_category");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto report = (*quarry)->DeployServing();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->success);
  core::Quarry::Telemetry().StopTracing();

#ifndef QUARRY_DISABLE_TRACING
  std::vector<SpanRecord> spans = TraceRecorder::Instance().Snapshot();
  for (const char* name :
       {"quarry.add_requirement", "interpreter.interpret",
        "integrator.add_requirement", "integrator.md_integrate",
        "integrator.etl_integrate", "deploy", "deploy.generate",
        "deploy.ddl", "deploy.etl", "deploy.integrity", "etl.run",
        "etl.node.Loader"}) {
    EXPECT_NE(FindSpan(spans, name), nullptr) << "missing span " << name;
  }
  // The pipeline spans nest: etl.node.* under etl.run under deploy.
  const SpanRecord* run = FindSpan(spans, "etl.run");
  const SpanRecord* loader = FindSpan(spans, "etl.node.Loader");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(loader, nullptr);
  EXPECT_GT(loader->depth, run->depth);
#endif  // QUARRY_DISABLE_TRACING

  // Metrics stay live even when tracing is compiled out.
  MetricsRegistry& reg = MetricsRegistry::Instance();
  EXPECT_GE(reg.counter("quarry_interpreter_requirements_total").value(), 1);
  EXPECT_GE(reg.counter("quarry_etl_runs_total").value(), 1);
  EXPECT_GT(reg.counter("quarry_etl_rows_out_total").value(), 0);
  EXPECT_GT(reg.gauge("quarry_design_requirements").value(), 0);
  EXPECT_GE(
      reg.counter("quarry_etl_nodes_executed_total", "", {{"op", "Loader"}})
          .value(),
      1);
  EXPECT_EQ(reg.counter("quarry_deploy_success_total").value(), 1);
  // Every registered family is inventoried in docs/OBSERVABILITY.md
  // (tools/check_metrics_doc.sh enforces the same invariant in CI).
  EXPECT_FALSE(reg.FamilyNames().empty());
}

}  // namespace
}  // namespace quarry::obs
