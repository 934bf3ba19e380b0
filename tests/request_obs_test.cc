// Request-scoped observability (docs/OBSERVABILITY.md §"HTTP endpoints &
// request profiles"): request-id minting and uniqueness under the wavefront
// scheduler, EXPLAIN ANALYZE profile trees whose per-node row counts match
// the executor's metrics exactly, request-id span attribution, the
// structured event log's slow-request promotion and ring wrap-around.
//
// Carries the `tsan` label: the concurrency cases re-run under
// -DQUARRY_SANITIZE=thread via tools/run_tsan.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/quarry.h"
#include "datagen/retail.h"
#include "etl/exec/executor.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/request_log.h"
#include "obs/trace.h"

namespace quarry::core {
namespace {

class RequestObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::Instance().Stop();
    obs::MetricsRegistry::Instance().ResetForTest();
    obs::RequestLog::Instance().ResetForTest();
  }
  void TearDown() override { obs::TraceRecorder::Instance().Stop(); }

  // A serving Quarry over the retail demo: two requirements deployed into a
  // published warehouse generation, ETL on the wavefront scheduler.
  std::unique_ptr<Quarry> MakeServingQuarry(int max_workers = 4) {
    Status populated = datagen::PopulateRetail(&source_, datagen::RetailConfig{});
    EXPECT_TRUE(populated.ok()) << populated.ToString();
    QuarryConfig config;
    config.etl_exec.max_workers = max_workers;
    auto q = Quarry::Create(datagen::BuildRetailOntology(),
                            datagen::BuildRetailMappings(), &source_,
                            std::move(config));
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    const char* requirements[] = {
        "ANALYZE turnover ON Sale "
        "MEASURE turnover = Sale.sl_amount * (1 - Sale.sl_discount) SUM "
        "BY Product.pr_category, Store.st_city",
        "ANALYZE units_by_region ON Sale "
        "MEASURE units = Sale.sl_units SUM BY Region.rr_name",
    };
    for (const char* text : requirements) {
      auto outcome = (*q)->SubmitRequirementFromQuery(text);
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    auto deployed = (*q)->DeployServing();
    EXPECT_TRUE(deployed.ok()) << deployed.status().ToString();
    EXPECT_TRUE(deployed->success);
    return std::move(*q);
  }

  static olap::CubeQuery TurnoverByCategory() {
    olap::CubeQuery query;
    query.fact = "fact_table_turnover";
    query.group_by = {"pr_category"};
    query.measures.push_back({"turnover", md::AggFunc::kSum, "total"});
    return query;
  }

  storage::Database source_;
};

// Every entry point mints a fresh id: queries racing the wavefront executor
// and serving refreshes never share one, and every completion lands in the
// event log exactly once.
TEST_F(RequestObsTest, RequestIdsUniqueAcrossConcurrentSubmissions) {
  auto quarry = MakeServingQuarry(/*max_workers=*/4);
  obs::RequestLog::Instance().ResetForTest();  // Drop the setup records.

  constexpr int kQueryThreads = 6;
  constexpr int kQueriesPerThread = 4;
  constexpr int kRefreshes = 2;

  std::mutex mu;
  std::vector<uint64_t> query_ids;
  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads + 1);
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = quarry->SubmitQuery(TurnoverByCategory());
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        query_ids.push_back(result->request_id);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRefreshes; ++i) {
      auto refreshed = quarry->RefreshServing();
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    }
  });
  for (auto& thread : threads) thread.join();

  ASSERT_EQ(query_ids.size(),
            static_cast<size_t>(kQueryThreads * kQueriesPerThread));
  std::set<uint64_t> unique_query_ids(query_ids.begin(), query_ids.end());
  EXPECT_EQ(unique_query_ids.size(), query_ids.size());
  EXPECT_EQ(unique_query_ids.count(0), 0u);

  // The event log saw one record per completion — queries + refreshes —
  // each under its own id.
  const auto records = obs::RequestLog::Instance().Snapshot();
  ASSERT_EQ(records.size(), static_cast<size_t>(kQueryThreads *
                                                    kQueriesPerThread +
                                                kRefreshes));
  std::set<uint64_t> record_ids;
  for (const auto& record : records) {
    EXPECT_NE(record.id, 0u);
    EXPECT_TRUE(record_ids.insert(record.id).second)
        << "duplicate request id " << record.id;
    EXPECT_EQ(record.status, "ok");
  }
}

// The acceptance bar of the profile tree: per-node rows_in/rows_out summed
// over the EXPLAIN ANALYZE plan equal the executor's row counters for the
// same run, exactly.
TEST_F(RequestObsTest, ProfileRowCountsMatchExecutorMetricsExactly) {
  auto quarry = MakeServingQuarry(/*max_workers=*/1);

  // Reset after setup so the counters cover exactly one query execution.
  obs::MetricsRegistry::Instance().ResetForTest();
  auto result = quarry->SubmitQuery(TurnoverByCategory());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->profile.roots.empty());

  int64_t profile_rows_in = 0;
  int64_t profile_rows_out = 0;
  std::vector<const obs::ProfileNode*> stack;
  for (const auto& root : result->profile.roots) stack.push_back(&root);
  while (!stack.empty()) {
    const obs::ProfileNode* node = stack.back();
    stack.pop_back();
    profile_rows_in += node->rows_in;
    profile_rows_out += node->rows_out;
    for (const auto& child : node->children) stack.push_back(&child);
  }

  EXPECT_EQ(profile_rows_in, obs::MetricsRegistry::Instance()
                                 .counter("quarry_etl_rows_in_total")
                                 .value());
  EXPECT_EQ(profile_rows_out, obs::MetricsRegistry::Instance()
                                  .counter("quarry_etl_rows_out_total")
                                  .value());
  EXPECT_GT(profile_rows_out, 0);

  // The profile header fields are attributed to this request.
  EXPECT_EQ(result->profile.request_id, result->request_id);
  EXPECT_EQ(result->profile.kind, "query");
  EXPECT_EQ(result->profile.lane, "query");
  EXPECT_EQ(result->profile.generation, result->generation);
  EXPECT_GT(result->profile.total_micros, 0.0);
}

// ToText names the real compiled plan nodes (the cube_query.h TODO), and
// ToJson round-trips through the in-tree parser.
TEST_F(RequestObsTest, ProfileRenderersNameRealPlanNodes) {
  auto quarry = MakeServingQuarry(/*max_workers=*/1);
  auto result = quarry->SubmitQuery(TurnoverByCategory());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::string text = result->profile.ToText();
  EXPECT_NE(text.find("q_fact"), std::string::npos) << text;
  EXPECT_NE(text.find("q_agg"), std::string::npos) << text;
  EXPECT_NE(text.find("q_result"), std::string::npos) << text;
  EXPECT_NE(text.find("kind=query"), std::string::npos) << text;

  auto parsed = json::Parse(result->profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool found_plan = false;
  for (const auto& [key, value] : parsed->as_object()) {
    if (key == "plan") {
      found_plan = true;
      EXPECT_FALSE(value.as_array().empty());
    }
  }
  EXPECT_TRUE(found_plan);
}

// Opting out of profile collection leaves the plan empty but still
// attributes the request.
TEST_F(RequestObsTest, CollectProfileOptOut) {
  auto quarry = MakeServingQuarry(/*max_workers=*/1);
  QueryOptions options;
  options.collect_profile = false;
  auto result = quarry->SubmitQuery(TurnoverByCategory(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.roots.empty());
  EXPECT_NE(result->request_id, 0u);
}

#ifndef QUARRY_DISABLE_TRACING
// Spans emitted while serving a query carry the request id end to end: the
// etl.run span of the query's flow is stamped with QueryResult::request_id.
TEST_F(RequestObsTest, SpansCarryRequestId) {
  auto quarry = MakeServingQuarry(/*max_workers=*/1);

  obs::TraceRecorder::Instance().Start();
  auto result = quarry->SubmitQuery(TurnoverByCategory());
  obs::TraceRecorder::Instance().Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  bool found = false;
  for (const auto& span : obs::TraceRecorder::Instance().Snapshot()) {
    if (span.name != "etl.run") continue;
    for (const auto& attr : span.attrs) {
      if (attr.key == "request_id" &&
          attr.value == std::to_string(result->request_id)) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "no etl.run span stamped with request id "
                     << result->request_id;
}
#endif  // QUARRY_DISABLE_TRACING

// The slow-request threshold decides which event-log records keep their
// full profile JSON.
TEST_F(RequestObsTest, SlowThresholdPromotesProfiles) {
  auto quarry = MakeServingQuarry(/*max_workers=*/1);
  auto& log = obs::RequestLog::Instance();

  log.set_slow_threshold_micros(0.0);  // Everything is "slow".
  ASSERT_TRUE(quarry->SubmitQuery(TurnoverByCategory()).ok());
  auto records = log.Snapshot();
  ASSERT_FALSE(records.empty());
  const auto& promoted = records.back();
  EXPECT_EQ(promoted.kind, "query");
  ASSERT_FALSE(promoted.profile_json.empty());
  auto parsed = json::Parse(promoted.profile_json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(promoted.slowest_ops.empty());
  EXPECT_LE(promoted.slowest_ops.size(), 3u);
  // Slowest-first ordering.
  for (size_t i = 1; i < promoted.slowest_ops.size(); ++i) {
    EXPECT_GE(promoted.slowest_ops[i - 1].micros,
              promoted.slowest_ops[i].micros);
  }

  log.set_slow_threshold_micros(1e12);  // Nothing is.
  ASSERT_TRUE(quarry->SubmitQuery(TurnoverByCategory()).ok());
  records = log.Snapshot();
  EXPECT_TRUE(records.back().profile_json.empty());
  // The JSONL drain stays parseable either way.
  auto lines = log.ToJsonl();
  size_t start = 0;
  while (start < lines.size()) {
    size_t end = lines.find('\n', start);
    if (end == std::string::npos) end = lines.size();
    const std::string line = lines.substr(start, end - start);
    if (!line.empty()) {
      auto parsed_line = json::Parse(line);
      EXPECT_TRUE(parsed_line.ok()) << line;
    }
    start = end + 1;
  }
}

// A refresh record keeps its EXPLAIN ANALYZE profile above the slow
// threshold, as a deploy record does: one tree per sink of the flow.
TEST_F(RequestObsTest, SlowRefreshRecordsItsProfile) {
  auto& log = obs::RequestLog::Instance();
  log.set_slow_threshold_micros(0.0);  // Everything is "slow".
  auto quarry = MakeServingQuarry(/*max_workers=*/1);
  auto refreshed = quarry->RefreshServing();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();

  std::vector<std::string> sinks;
  for (const auto& [id, node] : quarry->flow().nodes()) {
    bool has_successor = false;
    for (const auto& edge : quarry->flow().edges()) {
      has_successor = has_successor || edge.from == id;
    }
    if (!has_successor) sinks.push_back(id);
  }
  ASSERT_FALSE(sinks.empty());

  const auto records = log.Snapshot();
  ASSERT_FALSE(records.empty());
  const auto& refresh = records.back();
  EXPECT_EQ(refresh.kind, "refresh_serving");
  ASSERT_FALSE(refresh.profile_json.empty());
  auto parsed = json::Parse(refresh.profile_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::string> roots;
  std::string kind;
  for (const auto& [key, value] : parsed->as_object()) {
    if (key == "kind") kind = value.as_string();
    if (key != "plan") continue;
    for (const auto& root : value.as_array()) {
      for (const auto& [field, v] : root.as_object()) {
        if (field == "id") roots.push_back(v.as_string());
      }
    }
  }
  EXPECT_EQ(kind, "refresh_serving");
  EXPECT_EQ(roots, sinks);
}

/// The ids of every node in a profile plan (a node shared by two parents
/// appears once).
void CollectPlanIds(const json::Value& node, std::set<std::string>* ids) {
  for (const auto& [field, v] : node.as_object()) {
    if (field == "id") ids->insert(v.as_string());
    if (field != "children") continue;
    for (const auto& child : v.as_array()) CollectPlanIds(child, ids);
  }
}

std::set<std::string> PlanIds(const std::string& profile_json) {
  std::set<std::string> ids;
  auto parsed = json::Parse(profile_json);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return ids;
  for (const auto& [key, value] : parsed->as_object()) {
    if (key != "plan") continue;
    for (const auto& root : value.as_array()) CollectPlanIds(root, &ids);
  }
  return ids;
}

std::set<std::string> RanIds(const etl::ExecutionReport& report) {
  std::set<std::string> ids;
  for (const etl::NodeStats& node : report.nodes) ids.insert(node.node_id);
  return ids;
}

// The EXPLAIN ANALYZE plan of a deployment and of a refresh is drawn over
// the flow the executor ran: it names every node that ran, and no other.
TEST_F(RequestObsTest, DeployAndRefreshPlansNameEveryNodeThatRan) {
  auto& log = obs::RequestLog::Instance();
  log.set_slow_threshold_micros(0.0);  // Everything is "slow".
  auto quarry = MakeServingQuarry(/*max_workers=*/1);
  auto deployed = quarry->DeployServing();
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
  ASSERT_TRUE(deployed->success);
  auto refreshed = quarry->RefreshServing();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();

  const std::set<std::string> deploy_ran = RanIds(deployed->report.etl);
  const std::set<std::string> refresh_ran = RanIds(*refreshed);
  ASSERT_FALSE(deploy_ran.empty());
  ASSERT_FALSE(refresh_ran.empty());
  int checked = 0;
  for (const auto& record : log.Snapshot()) {
    const std::set<std::string>* ran = nullptr;
    if (record.kind == "deploy_serving" &&
        record.generation == deployed->published_generation) {
      ran = &deploy_ran;
    } else if (record.kind == "refresh_serving") {
      ran = &refresh_ran;
    }
    if (ran == nullptr) continue;
    ++checked;
    EXPECT_EQ(PlanIds(record.profile_json), *ran) << record.kind;
  }
  EXPECT_EQ(checked, 2);
}

// Failed requests are recorded with their status-code name and counted in
// the failure family.
TEST_F(RequestObsTest, FailuresAreRecordedWithStatus) {
  auto quarry = MakeServingQuarry(/*max_workers=*/1);
  obs::RequestLog::Instance().ResetForTest();

  olap::CubeQuery bogus;
  bogus.fact = "no_such_fact";
  bogus.measures.push_back({"x", md::AggFunc::kSum, "x"});
  auto result = quarry->SubmitQuery(bogus);
  EXPECT_FALSE(result.ok());

  const auto records = obs::RequestLog::Instance().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, "query");
  EXPECT_NE(records[0].status, "ok");
  EXPECT_GE(obs::MetricsRegistry::Instance()
                .counter("quarry_request_failures_total", "",
                         {{"kind", "query"}})
                .value(),
            1);
}

// The ring keeps the newest `capacity` records, oldest first, and the
// monotonic total survives wrap-around.
TEST_F(RequestObsTest, EventLogRingWrapsAround) {
  obs::RequestLog log(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    obs::RequestRecord record;
    record.id = i;
    record.kind = "query";
    log.Record(std::move(record));
  }
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.capacity(), 4u);
  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, 7u + i);  // 7, 8, 9, 10 — oldest first.
  }
}

// Concurrent writers on a tiny ring: no torn records, every retained record
// is one of the written ones (tsan exercises the per-slot locking).
TEST_F(RequestObsTest, EventLogConcurrentWriters) {
  obs::RequestLog log(8);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::RequestRecord record;
        record.id = static_cast<uint64_t>(t * kPerThread + i + 1);
        record.kind = "query";
        record.status = "ok";
        record.profile_json = "{\"request_id\":" + std::to_string(record.id) +
                              "}";
        log.set_slow_threshold_micros(0.0);
        log.Record(std::move(record));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(log.total_recorded(),
            static_cast<uint64_t>(kThreads * kPerThread));
  const auto records = log.Snapshot();
  EXPECT_EQ(records.size(), 8u);
  for (const auto& record : records) {
    EXPECT_GE(record.id, 1u);
    EXPECT_LE(record.id, static_cast<uint64_t>(kThreads * kPerThread));
    // A record is internally consistent (not stitched from two writers).
    EXPECT_EQ(record.profile_json,
              "{\"request_id\":" + std::to_string(record.id) + "}");
  }
}

}  // namespace
}  // namespace quarry::core
