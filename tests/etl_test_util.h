#ifndef QUARRY_TESTS_ETL_TEST_UTIL_H_
#define QUARRY_TESTS_ETL_TEST_UTIL_H_

// Shared helpers for the executor differential tests (etl_parallel_test.cc)
// and the scheduler / chunk-size property tests (property_test.cc): a seeded
// random flow generator over a seeded random source database, runners for
// the executor and for the row-at-a-time reference executor
// (etl_reference.h), and the comparison between the two.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "common/result.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "etl_reference.h"
#include "storage/database.h"

namespace quarry::etl::testutil {

inline Node MakeNode(const std::string& id, OpType type,
                     std::map<std::string, std::string> params) {
  Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

/// Source database with `tables` tables named src0..srcN-1, all sharing the
/// schema (id INT, v INT, w DOUBLE, s STRING) so generated unions and joins
/// always type-check. Row counts and values are seed-deterministic; some
/// cells are NULL to exercise the merge/selection NULL paths.
inline std::unique_ptr<storage::Database> BuildRandomSource(uint64_t seed,
                                                            int tables = 3,
                                                            int max_rows =
                                                                120) {
  using storage::DataType;
  using storage::Value;
  Prng prng(seed * 0x9E3779B97F4A7C15ULL + 1);
  auto db = std::make_unique<storage::Database>("src");
  for (int t = 0; t < tables; ++t) {
    storage::TableSchema schema("src" + std::to_string(t));
    (void)schema.AddColumn({"id", DataType::kInt64, false});
    (void)schema.AddColumn({"v", DataType::kInt64, true});
    (void)schema.AddColumn({"w", DataType::kDouble, true});
    (void)schema.AddColumn({"s", DataType::kString, true});
    storage::Table* table = *db->CreateTable(std::move(schema));
    const int64_t rows = prng.Uniform(1, max_rows);
    for (int64_t r = 0; r < rows; ++r) {
      storage::Row row;
      row.push_back(Value::Int(r));
      row.push_back(prng.Chance(0.1) ? Value::Null()
                                     : Value::Int(prng.Uniform(0, 50)));
      row.push_back(prng.Chance(0.1)
                        ? Value::Null()
                        : Value::Double(prng.UniformDouble() * 100.0));
      row.push_back(prng.Chance(0.1) ? Value::Null()
                                     : Value::String(prng.Word(3)));
      (void)table->Insert(std::move(row));
    }
  }
  return db;
}

/// Builds a random valid flow over BuildRandomSource(seed) tables: a few
/// datastore→extraction roots, then `ops` random operators applied to
/// random live streams (union/join merge two streams), then one loader per
/// remaining stream. Deterministic per seed; every generated flow passes
/// Flow::Validate(). Branchy by construction, so parallel runs actually get
/// concurrent wavefronts. Every operator type can appear. A join is
/// followed by a projection onto every merged name, or, with
/// `subset_after_join`, onto a random subset that keeps `id`, so later
/// operators read only some of the join's columns (column liveness).
inline Flow BuildRandomFlow(uint64_t seed, int source_tables = 3,
                            int ops = 12, bool subset_after_join = false) {
  Prng prng(seed);
  Flow flow("random_" + std::to_string(seed));
  int next_id = 0;
  auto fresh = [&next_id](const char* prefix) {
    return std::string(prefix) + std::to_string(next_id++);
  };

  // A live stream = a node whose dataset is still unconsumed, plus the
  // column list that dataset has (mirrors operator schema semantics).
  struct Stream {
    std::string node;
    std::vector<std::string> columns;
  };
  std::vector<Stream> streams;

  const int roots = static_cast<int>(prng.Uniform(2, 4));
  for (int r = 0; r < roots; ++r) {
    std::string table = "src" + std::to_string(prng.Uniform(
                                    0, source_tables - 1));
    std::string ds = fresh("ds");
    std::string ex = fresh("ex");
    (void)flow.AddNode(MakeNode(ds, OpType::kDatastore, {{"table", table}}));
    (void)flow.AddNode(MakeNode(ex, OpType::kExtraction, {{"table", table}}));
    (void)flow.AddEdge(ds, ex);
    streams.push_back({ex, {"id", "v", "w", "s"}});
  }

  auto has_column = [](const Stream& s, const std::string& c) {
    return std::find(s.columns.begin(), s.columns.end(), c) !=
           s.columns.end();
  };
  auto unique_columns = [](const std::vector<std::string>& cols) {
    std::vector<std::string> out;
    for (const std::string& c : cols) {
      if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    }
    return out;
  };

  for (int op = 0; op < ops; ++op) {
    size_t pick = static_cast<size_t>(
        prng.Uniform(0, static_cast<int64_t>(streams.size()) - 1));
    Stream& stream = streams[pick];
    switch (prng.Uniform(0, 7)) {
      case 0: {  // Selection on a numeric column when one exists.
        std::string pred;
        if (has_column(stream, "v")) {
          pred = "v >= " + std::to_string(prng.Uniform(0, 40));
        } else if (has_column(stream, "w")) {
          pred = "w < " + std::to_string(prng.Uniform(10, 90)) + ".0";
        } else {
          pred = stream.columns[0] + " = " + stream.columns[0];
        }
        std::string id = fresh("sel");
        (void)flow.AddNode(
            MakeNode(id, OpType::kSelection, {{"predicate", pred}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        break;
      }
      case 1: {  // Projection onto a random non-empty prefix-ish subset.
        std::vector<std::string> keep;
        for (const std::string& c : stream.columns) {
          if (prng.Chance(0.7)) keep.push_back(c);
        }
        if (keep.empty()) keep.push_back(stream.columns[0]);
        std::string cols;
        for (size_t i = 0; i < keep.size(); ++i) {
          if (i > 0) cols += ",";
          cols += keep[i];
        }
        std::string id = fresh("proj");
        (void)flow.AddNode(
            MakeNode(id, OpType::kProjection, {{"columns", cols}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns = keep;
        break;
      }
      case 2: {  // Function: derive a fresh numeric column.
        if (!has_column(stream, "v")) break;
        std::string col = fresh("f");
        std::string id = fresh("fn");
        (void)flow.AddNode(MakeNode(
            id, OpType::kFunction,
            {{"column", col},
             {"expr", "v * " + std::to_string(prng.Uniform(2, 5)) + " + 1"}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns.push_back(col);
        break;
      }
      case 3: {  // Sort by a random existing column.
        std::string by = stream.columns[static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(stream.columns.size()) - 1))];
        std::string id = fresh("sort");
        (void)flow.AddNode(MakeNode(
            id, OpType::kSort,
            {{"by", by}, {"desc", prng.Chance(0.5) ? "true" : "false"}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        break;
      }
      case 4: {  // Aggregation: group by one column, aggregate another.
        if (stream.columns.size() < 2) break;
        std::string group = stream.columns[0];
        std::string measure = stream.columns[1];
        std::string out_col = fresh("agg_out");
        std::string id = fresh("agg");
        const char* fn = prng.Chance(0.5) ? "SUM" : "COUNT";
        (void)flow.AddNode(MakeNode(
            id, OpType::kAggregation,
            {{"group", group},
             {"aggs", std::string(fn) + "(" + measure + ") AS " + out_col}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns = {group, out_col};
        break;
      }
      case 5: {  // Union of two schema-identical streams.
        if (streams.size() < 2) break;
        size_t other = static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(streams.size()) - 1));
        if (other == pick || streams[other].columns != stream.columns) break;
        std::string id = fresh("uni");
        (void)flow.AddNode(MakeNode(id, OpType::kUnion, {}));
        (void)flow.AddEdge(stream.node, id);
        (void)flow.AddEdge(streams[other].node, id);
        stream.node = id;
        streams.erase(streams.begin() + static_cast<long>(other));
        break;
      }
      case 6: {  // Join on id, then project away duplicate column names.
        if (streams.size() < 2) break;
        size_t other = static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(streams.size()) - 1));
        if (other == pick) break;
        Stream& right = streams[other];
        if (!has_column(stream, "id") || !has_column(right, "id")) break;
        std::string join_id = fresh("join");
        (void)flow.AddNode(MakeNode(
            join_id, OpType::kJoin,
            {{"left", "id"},
             {"right", "id"},
             {"type", prng.Chance(0.3) ? "left" : "inner"}}));
        (void)flow.AddEdge(stream.node, join_id);
        (void)flow.AddEdge(right.node, join_id);
        std::vector<std::string> merged = stream.columns;
        merged.insert(merged.end(), right.columns.begin(),
                      right.columns.end());
        std::vector<std::string> keep = unique_columns(merged);
        if (subset_after_join) {
          std::vector<std::string> subset;
          for (const std::string& c : keep) {
            if (c == "id" || prng.Chance(0.5)) subset.push_back(c);
          }
          keep = std::move(subset);
        }
        std::string cols;
        for (size_t i = 0; i < keep.size(); ++i) {
          if (i > 0) cols += ",";
          cols += keep[i];
        }
        std::string proj_id = fresh("proj");
        (void)flow.AddNode(
            MakeNode(proj_id, OpType::kProjection, {{"columns", cols}}));
        (void)flow.AddEdge(join_id, proj_id);
        stream.node = proj_id;
        stream.columns = keep;
        streams.erase(streams.begin() + static_cast<long>(other));
        break;
      }
      case 7: {  // SurrogateKey: dense ids over one or two key columns.
        const size_t k = static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(stream.columns.size()) - 1));
        std::string keys = stream.columns[k];
        if (k + 1 < stream.columns.size() && prng.Chance(0.5)) {
          keys += "," + stream.columns[k + 1];
        }
        std::string col = fresh("sk");
        std::string id = fresh("skey");
        (void)flow.AddNode(MakeNode(id, OpType::kSurrogateKey,
                                    {{"column", col}, {"keys", keys}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns.push_back(col);
        break;
      }
    }
  }

  int table_no = 0;
  for (Stream& stream : streams) {
    std::string id = fresh("load");
    std::map<std::string, std::string> params{
        {"table", "out" + std::to_string(table_no++)}};
    if (has_column(stream, "id") && prng.Chance(0.5)) params["keys"] = "id";
    (void)flow.AddNode(MakeNode(id, OpType::kLoader, std::move(params)));
    (void)flow.AddEdge(stream.node, id);
  }
  return flow;
}

/// One executed run: target fingerprint plus everything the differential
/// comparisons look at.
struct RunOutcome {
  Status status = Status::OK();
  uint64_t fingerprint = 0;
  ExecutionReport report;
};

/// Runs `flow` against a fresh target with full control over ExecOptions.
/// The retry/checkpoint/ctx knobs mirror Executor::Run's.
inline RunOutcome RunFlowOpts(const storage::Database& source,
                              const Flow& flow, const ExecOptions& options,
                              const RetryPolicy& retry = {},
                              Checkpoint* checkpoint = nullptr,
                              const ExecContext* ctx = nullptr) {
  storage::Database target("dw");
  Executor executor(&source, &target);
  RunOutcome outcome;
  Result<ExecutionReport> report =
      executor.Run(flow, options, retry, checkpoint, ctx);
  outcome.status = report.status();
  if (report.ok()) outcome.report = std::move(*report);
  outcome.fingerprint = target.Fingerprint();
  return outcome;
}

/// Runs `flow` against a fresh target with the given worker count.
inline RunOutcome RunFlow(const storage::Database& source, const Flow& flow,
                          int workers, const RetryPolicy& retry = {},
                          Checkpoint* checkpoint = nullptr,
                          const ExecContext* ctx = nullptr) {
  ExecOptions options;
  options.max_workers = workers;
  return RunFlowOpts(source, flow, options, retry, checkpoint, ctx);
}

/// Runs `flow` through the reference executor against a fresh target.
inline RunOutcome RunReference(const storage::Database& source,
                               const Flow& flow) {
  storage::Database target("dw");
  RunOutcome outcome;
  Result<ExecutionReport> report = reference::Run(source, flow, &target);
  outcome.status = report.status();
  if (report.ok()) outcome.report = std::move(*report);
  outcome.fingerprint = target.Fingerprint();
  return outcome;
}

/// Node stats keyed by id — completion order differs between serial and
/// parallel runs, so comparisons must be order-free.
inline std::map<std::string, NodeStats> StatsById(
    const ExecutionReport& report) {
  std::map<std::string, NodeStats> out;
  for (const NodeStats& stats : report.nodes) out[stats.node_id] = stats;
  return out;
}

/// The differential check (DESIGN.md §8): the executor run `got` must land
/// on the reference run's exact target bytes, run every node exactly once
/// with the reference's per-node rows_in/rows_out, and report the same
/// rows_processed and rows loaded per table. `label` names the run's
/// configuration in failure messages.
inline void ExpectMatchesReference(const Flow& flow, const RunOutcome& want,
                                   const RunOutcome& got,
                                   const std::string& label) {
  ASSERT_TRUE(want.status.ok()) << "reference: " << want.status;
  ASSERT_TRUE(got.status.ok()) << label << ": " << got.status;
  EXPECT_EQ(got.fingerprint, want.fingerprint)
      << "flow '" << flow.name() << "' diverged at " << label;
  EXPECT_EQ(got.report.rows_processed, want.report.rows_processed) << label;
  EXPECT_EQ(got.report.loaded, want.report.loaded) << label;
  EXPECT_EQ(got.report.nodes.size(), flow.num_nodes()) << label;
  auto got_stats = StatsById(got.report);
  for (const auto& [id, stats] : StatsById(want.report)) {
    auto it = got_stats.find(id);
    ASSERT_NE(it, got_stats.end()) << "node " << id << " never ran ("
                                   << label << ")";
    EXPECT_EQ(it->second.rows_in, stats.rows_in)
        << "node " << id << " (" << label << ")";
    EXPECT_EQ(it->second.rows_out, stats.rows_out)
        << "node " << id << " (" << label << ")";
  }
}

/// Runs `flow` through the reference once and through the executor at
/// chunk sizes 1 (every chunk a singleton), 7 (a partial last chunk nearly
/// everywhere), 1024 (the default) and rows+1 (one oversized chunk), each
/// with 1 and 4 workers, checking every run with ExpectMatchesReference.
inline void ExpectChunkSweepMatchesReference(const storage::Database& source,
                                             const Flow& flow,
                                             const std::string& label) {
  const RunOutcome want = RunReference(source, flow);
  ASSERT_TRUE(want.status.ok()) << label << " reference: " << want.status;
  const int64_t oversized = want.report.rows_processed + 1;
  for (int64_t chunk_size :
       {int64_t{1}, int64_t{7}, int64_t{1024}, oversized}) {
    for (int workers : {1, 4}) {
      ExecOptions options;
      options.max_workers = workers;
      options.chunk_size = chunk_size;
      ExpectMatchesReference(flow, want,
                             RunFlowOpts(source, flow, options),
                             label + " chunk_size=" +
                                 std::to_string(chunk_size) +
                                 " workers=" + std::to_string(workers));
    }
  }
}

}  // namespace quarry::etl::testutil

#endif  // QUARRY_TESTS_ETL_TEST_UTIL_H_
