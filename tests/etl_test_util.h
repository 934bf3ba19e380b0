#ifndef QUARRY_TESTS_ETL_TEST_UTIL_H_
#define QUARRY_TESTS_ETL_TEST_UTIL_H_

// Shared helpers for the executor differential tests (etl_parallel_test.cc)
// and the scheduler / chunk-size property tests (property_test.cc): a seeded
// random flow generator over a seeded random source database, a seeded
// random expression generator with its source and flow, runners for the
// executor and for the row-at-a-time reference executor (etl_reference.h),
// and the comparison between the two.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
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

/// Runs `flow` through the executor at chunk sizes 1 (every chunk a
/// singleton), 7 (a partial last chunk nearly everywhere), 1024 (the
/// default) and `oversized` (one chunk), each with 1 and 4 workers, and
/// calls check(run, workers, label) on every run.
template <typename CheckFn>
void ForEachChunkConfig(const storage::Database& source, const Flow& flow,
                        int64_t oversized, const std::string& label,
                        CheckFn check) {
  for (int64_t chunk_size :
       {int64_t{1}, int64_t{7}, int64_t{1024}, oversized}) {
    for (int workers : {1, 4}) {
      ExecOptions options;
      options.max_workers = workers;
      options.chunk_size = chunk_size;
      check(RunFlowOpts(source, flow, options), workers,
            label + " chunk_size=" + std::to_string(chunk_size) +
                " workers=" + std::to_string(workers));
    }
  }
}

/// Checks the executor at every ForEachChunkConfig configuration, with
/// rows+1 as the oversized chunk, against the successful reference run
/// `want` with ExpectMatchesReference.
inline void ExpectSweepMatches(const storage::Database& source,
                               const Flow& flow, const RunOutcome& want,
                               const std::string& label) {
  ForEachChunkConfig(source, flow, want.report.rows_processed + 1, label,
                     [&](const RunOutcome& got, int, const std::string& run) {
                       ExpectMatchesReference(flow, want, got, run);
                     });
}

/// Runs `flow` through the reference once and checks the executor's chunk
/// sweep against it (ExpectSweepMatches).
inline void ExpectChunkSweepMatchesReference(const storage::Database& source,
                                             const Flow& flow,
                                             const std::string& label) {
  const RunOutcome want = RunReference(source, flow);
  ASSERT_TRUE(want.status.ok()) << label << " reference: " << want.status;
  ExpectSweepMatches(source, flow, want, label);
}

/// The node id in a failed run's status, and the message after the node
/// prefix: the reference writes "node 'x': ...", the executor
/// "node 'x' (Selection): ...".
inline std::pair<std::string, std::string> SplitNodeError(
    const Status& status) {
  const std::string& text = status.message();
  const std::string prefix = "node '";
  const size_t quote = text.find('\'', prefix.size());
  const size_t colon = text.find(": ", quote);
  if (text.rfind(prefix, 0) != 0 || colon == std::string::npos) {
    return {"", text};
  }
  return {text.substr(prefix.size(), quote - prefix.size()),
          text.substr(colon + 2)};
}

/// The chunk sweep for a flow the reference may fail. Where the reference
/// succeeds, every run must match it as in ExpectChunkSweepMatchesReference.
/// Where it fails, every run must fail too, and each serial run (which
/// keeps the reference's node order) at the same node, with the same status
/// code and the same message after the node prefix. Returns the
/// reference's status.
inline Status ExpectChunkSweepAgreesWithReference(
    const storage::Database& source, const Flow& flow,
    const std::string& label) {
  const RunOutcome want = RunReference(source, flow);
  if (want.status.ok()) {
    ExpectSweepMatches(source, flow, want, label);
    return want.status;
  }
  const auto [want_node, want_message] = SplitNodeError(want.status);
  ForEachChunkConfig(
      source, flow, int64_t{1} << 20, label,
      [&](const RunOutcome& got, int workers, const std::string& run) {
        ASSERT_FALSE(got.status.ok())
            << run << ": the reference failed with " << want.status;
        if (workers != 1) return;
        const auto [node, message] = SplitNodeError(got.status);
        EXPECT_EQ(node, want_node) << run << ": " << got.status;
        EXPECT_TRUE(got.status.code() == want.status.code())
            << run << ": " << got.status << " vs " << want.status;
        EXPECT_EQ(message, want_message) << run;
      });
  return want.status;
}

// ---------------------------------------------------------------------------
// Random expressions: a source with every value type, a flow that runs one
// expression as Selection predicates and as a Function, and the generator.

/// Source of the random-expression flows (BuildExprFlow): table `ex` with
/// id INT NOT NULL and the nullable i INT, d DOUBLE, s STRING, t DATE and
/// b BOOL — about one cell in six NULL, i reaching the int64 limits, d
/// holding signed zeros and 1e300 — plus a group key g STRING and the
/// summands gi INT and gd DOUBLE that AddExprBase folds into a kMixed
/// column. Seed-deterministic.
inline std::unique_ptr<storage::Database> BuildExprSource(uint64_t seed,
                                                          int rows = 48) {
  using storage::DataType;
  using storage::Value;
  Prng prng(seed * 0x9E3779B97F4A7C15ULL + 7);
  auto db = std::make_unique<storage::Database>("exprs");
  storage::TableSchema schema("ex");
  (void)schema.AddColumn({"id", DataType::kInt64, false});
  const std::pair<const char*, DataType> nullable[] = {
      {"i", DataType::kInt64},  {"d", DataType::kDouble},
      {"s", DataType::kString}, {"t", DataType::kDate},
      {"b", DataType::kBool},   {"g", DataType::kString},
      {"gi", DataType::kInt64}, {"gd", DataType::kDouble}};
  for (const auto& [name, type] : nullable) {
    (void)schema.AddColumn({name, type, true});
  }
  storage::Table* table = *db->CreateTable(std::move(schema));
  const int64_t edge_ints[] = {INT64_MAX,     INT64_MIN,   INT64_MAX - 1,
                               INT64_MIN + 1, 0,           1,
                               -1,            3037000500,  -3037000500};
  const double edge_doubles[] = {0.0, -0.0, 1.5, -2.25, 1e300, 0x1p63};
  const char* edge_strings[] = {"", "a", "ab", "b", "B"};
  auto maybe_null = [&prng](Value v) {
    return prng.Chance(1.0 / 6) ? Value::Null() : std::move(v);
  };
  auto pick = [&prng](const auto& options) {
    return options[prng.Uniform(0, static_cast<int64_t>(std::size(options)) -
                                       1)];
  };
  for (int64_t r = 0; r < rows; ++r) {
    // The summands make group g0 all INT, g1 all DOUBLE, g2 both and g3
    // nothing, so the per-group sums mix INT, DOUBLE and NULL.
    const int64_t group = r % 4;
    storage::Row row;
    row.push_back(Value::Int(r));
    row.push_back(maybe_null(Value::Int(
        prng.Chance(0.4) ? pick(edge_ints) : prng.Uniform(-100, 100))));
    row.push_back(maybe_null(Value::Double(
        prng.Chance(0.4) ? pick(edge_doubles)
                         : prng.UniformDouble() * 200.0 - 100.0)));
    row.push_back(maybe_null(Value::String(
        prng.Chance(0.5) ? std::string(pick(edge_strings)) : prng.Word(2))));
    row.push_back(maybe_null(
        Value::Date(storage::DaysFromCivil(1995, 1, 1) +
                    static_cast<int32_t>(prng.Uniform(0, 1000)))));
    row.push_back(maybe_null(Value::Bool(prng.Chance(0.5))));
    row.push_back(prng.Chance(0.1)
                      ? Value::Null()
                      : Value::String("g" + std::to_string(group)));
    row.push_back(group == 0 || group == 2
                      ? Value::Int(prng.Uniform(-50, 50))
                      : Value::Null());
    row.push_back(group == 1 || group == 2
                      ? Value::Double(0.25 * static_cast<double>(
                                                 prng.Uniform(0, 40)))
                      : Value::Null());
    (void)table->Insert(std::move(row));
  }
  return db;
}

/// Adds BuildExprFlow's prologue to `flow`: the `ex` scan, the column m —
/// per g, SUM over gi * 1 and, behind a selection, gd * 1, which makes a
/// kMixed segment the way EtlVectorizedTest.MixedSegmentKeysMatchReference
/// does — left-joined back onto every row, and a projection onto
/// id,i,d,s,t,b,m. Returns the projection's id.
inline std::string AddExprBase(Flow* flow) {
  auto add = [flow](const std::string& id, OpType type,
                    std::map<std::string, std::string> params,
                    const std::vector<std::string>& inputs) {
    (void)flow->AddNode(MakeNode(id, type, std::move(params)));
    for (const std::string& in : inputs) (void)flow->AddEdge(in, id);
  };
  add("ds", OpType::kDatastore, {{"table", "ex"}}, {});
  add("ex", OpType::kExtraction, {{"table", "ex"}}, {"ds"});
  add("fn_gi", OpType::kFunction, {{"column", "n"}, {"expr", "gi * 1"}},
      {"ex"});
  add("proj_gi", OpType::kProjection, {{"columns", "g,n"}}, {"fn_gi"});
  add("sel_gd", OpType::kSelection, {{"predicate", "gd >= 0"}}, {"ex"});
  add("fn_gd", OpType::kFunction, {{"column", "n"}, {"expr", "gd * 1"}},
      {"sel_gd"});
  add("proj_gd", OpType::kProjection, {{"columns", "g,n"}}, {"fn_gd"});
  add("union", OpType::kUnion, {}, {"proj_gi", "proj_gd"});
  add("sums", OpType::kAggregation, {{"group", "g"}, {"aggs", "SUM(n) AS m"}},
      {"union"});
  add("fn_mg", OpType::kFunction, {{"column", "mg"}, {"expr", "g"}},
      {"sums"});
  add("proj_m", OpType::kProjection, {{"columns", "mg,m"}}, {"fn_mg"});
  add("join_m", OpType::kJoin,
      {{"left", "g"}, {"right", "mg"}, {"type", "left"}}, {"ex", "proj_m"});
  add("base", OpType::kProjection, {{"columns", "id,i,d,s,t,b,m"}},
      {"join_m"});
  return "base";
}

/// The flow for one random expression: behind a pre-filter that leaves
/// selection vectors, `expr` as a Function computing column x (out_fn,
/// with id) and as a Selection predicate (out_pre). With
/// `selection_on_base`, `expr` also filters AddExprBase's rows directly
/// (out_sel), and that node runs first; without, the Function does.
inline Flow BuildExprFlow(const std::string& expr, bool selection_on_base) {
  Flow flow("expr");
  const std::string base = AddExprBase(&flow);
  auto chain = [&flow](const std::string& from,
                       const std::vector<Node>& nodes) {
    std::string last = from;
    for (const Node& node : nodes) {
      (void)flow.AddNode(node);
      (void)flow.AddEdge(last, node.id);
      last = node.id;
    }
  };
  if (selection_on_base) {
    chain(base,
          {MakeNode("sel", OpType::kSelection, {{"predicate", expr}}),
           MakeNode("proj_sel", OpType::kProjection, {{"columns", "id"}}),
           MakeNode("load_sel", OpType::kLoader, {{"table", "out_sel"}})});
  }
  chain(base, {MakeNode("pre", OpType::kSelection,
                        {{"predicate", "id < 6 OR b"}})});
  chain("pre",
        {MakeNode("fn", OpType::kFunction, {{"column", "x"}, {"expr", expr}}),
         MakeNode("proj_fn", OpType::kProjection, {{"columns", "id,x"}}),
         MakeNode("load_fn", OpType::kLoader, {{"table", "out_fn"}})});
  chain("pre",
        {MakeNode("sel_pre", OpType::kSelection, {{"predicate", expr}}),
         MakeNode("proj_pre", OpType::kProjection, {{"columns", "id"}}),
         MakeNode("load_pre", OpType::kLoader, {{"table", "out_pre"}})});
  return flow;
}

/// A random expression over AddExprBase's columns, at most `depth`
/// operators deep, of type `type`: 'n' numeric, 'b' boolean, 's' string,
/// 'd' date, or 'a' any of these. Now and then an operand is of any type,
/// so some operators meet values they reject. The draws cover every
/// operator of the grammar; literals at the int64 limits, zeros, NULL,
/// strings, dates and booleans; string concatenation; comparisons across
/// types; and AND/OR whose right side hides an unknown column or an operand
/// that fails.
inline std::string RandomExpr(Prng* prng, int depth, char type = 'a') {
  static const char* const kNumbers[] = {
      "i", "i", "d", "d", "id", "m", "m", "9223372036854775807",
      "(-9223372036854775807 - 1)", "3037000500", "0", "1", "-1", "2",
      "0.0", "2.5", "NULL"};
  static const char* const kBools[] = {"b", "b", "TRUE", "FALSE", "NULL"};
  static const char* const kStrings[] = {"s", "s", "'a'", "''", "'ab'",
                                         "NULL"};
  static const char* const kDates[] = {"t", "t", "DATE '1996-02-29'",
                                       "NULL"};
  static const char* const kArith[] = {"+", "-", "*", "/"};
  static const char* const kCompare[] = {"=", "<>", "!=", "<",
                                         "<=", ">", ">="};
  static const char* const kHidden[] = {
      "zz = 1", "(s - 1) > 0", "(i * 9223372036854775807) > 0",
      "-(-9223372036854775807 - 1) < i", "(b + 1) = 2"};
  static const char* const kCross[] = {"s > 1", "t = 'a'", "b < 0",
                                       "d >= DATE '1996-01-01'", "m = s",
                                       "i <> b", "TRUE > 1", "t < s"};
  auto pick = [prng](const auto& options) -> std::string {
    return options[prng->Uniform(0, static_cast<int64_t>(std::size(options)) -
                                        1)];
  };
  if (type == 'a') type = "nnnbbsd"[prng->Uniform(0, 6)];
  const bool leaf = depth == 0 || prng->Chance(0.25);
  auto sub = [&](char t) {
    return RandomExpr(prng, depth - 1, prng->Chance(0.1) ? 'a' : t);
  };
  auto connective = [&] { return prng->Chance(0.5) ? " AND " : " OR "; };
  switch (type) {
    case 'n':
      if (leaf) return pick(kNumbers);
      if (prng->Chance(0.2)) return "(-" + sub('n') + ")";
      return "(" + sub('n') + " " + pick(kArith) + " " + sub('n') + ")";
    case 'b':
      if (leaf) return pick(kBools);
      switch (prng->Uniform(0, 5)) {
        case 0:
          return "(NOT " + sub('b') + ")";
        case 1:
          return "(" + sub('b') + connective() + sub('b') + ")";
        case 2:
          return "(" + sub('b') + connective() + pick(kHidden) + ")";
        case 3:
          return "(" + pick(kCross) + ")";
        default: {
          const char operands = "nnsdb"[prng->Uniform(0, 4)];
          return "(" + sub(operands) + " " + pick(kCompare) + " " +
                 sub(operands) + ")";
        }
      }
    case 's':
      if (leaf) return pick(kStrings);
      return "(" + sub('s') + " + " + sub('s') + ")";
    default:
      return pick(kDates);
  }
}

}  // namespace quarry::etl::testutil

#endif  // QUARRY_TESTS_ETL_TEST_UTIL_H_
