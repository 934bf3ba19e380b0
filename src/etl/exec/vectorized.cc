// The ETL executor's operator kernels (DESIGN.md §8): one chunk kernel per
// operator type, and no other execution path.
//
// Every kernel consumes its inputs as storage::Chunks and emits a Relation
// of chunks. A ChunkGate runs before each input chunk: it checks the
// request context and, once per node attempt, consults the mid-stream
// fault site ("etl.exec.vec.chunk"); emitted rows are charged against the
// budgets chunk by chunk. Selection and Function evaluate their expression
// one node at a time over a whole chunk (ColumnEvaluator, column_eval.h).
// Results must not depend on chunk boundaries: the differential harness
// (tests/etl_parallel_test.cc, tests/property_test.cc P8) compares every
// kernel with the row-at-a-time reference executor in tests/etl_reference.h
// — identical row order, identical Values, identical error statuses — at
// chunk sizes 1, 7, 1024 and rows+1.

#include <algorithm>
#include <memory>
#include <utility>

#include "common/fault_injection.h"
#include "etl/exec/column_eval.h"
#include "etl/exec/executor.h"
#include "etl/exec/kernel_util.h"
#include "etl/expr.h"
#include "etl/schema_inference.h"
#include "obs/metrics.h"
#include "storage/key.h"

namespace quarry::etl {

using storage::Chunk;
using storage::ChunkRow;
using storage::DataType;
using storage::KeyIndex;
using storage::Row;
using storage::RowKey;
using storage::Value;
using storage::ValueSegment;
using kernel::AggState;
using kernel::ColumnPositions;
using kernel::Param;
using kernel::SplitNonEmpty;

namespace {

obs::Counter& ChunkRowsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_chunk_rows_total", "Rows processed by chunk kernels");
  return c;
}

/// Join output segments by state: gathered, or skipped because no
/// downstream operator reads the column (column liveness, DESIGN.md §8).
obs::Counter& JoinSegmentsCounter(bool gathered) {
  static obs::Counter& gathered_c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_join_segments_total",
      "Join output column segments, gathered or skipped as dead",
      {{"state", "gathered"}});
  static obs::Counter& skipped_c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_join_segments_total", "", {{"state", "skipped"}});
  return gathered ? gathered_c : skipped_c;
}

/// Lower-bound memory estimate for `rows` rows of `columns` columns — the
/// unit of the intermediate-bytes budget. Ignores string payloads so a
/// charge costs O(1), and is linear in rows so a node's per-chunk charges
/// sum to the same total however its input was chunked. `columns` is the
/// logical width (Relation::columns), whether or not every column's
/// segment was gathered, so column liveness never changes what a budget
/// charges.
int64_t ApproxRowsBytes(int64_t rows, size_t columns) {
  return rows * static_cast<int64_t>(sizeof(storage::Row) +
                                     columns * sizeof(storage::Value));
}

/// Per-attempt chunk bookkeeping shared by every kernel. Enter() runs
/// before each input chunk: it polls the request context, so cancellation
/// latency is bounded by one chunk, then Count()s the chunk. Count() also
/// consults the mid-stream fault site at the attempt's second chunk;
/// consulting it once per attempt keeps a node's fault surface independent
/// of its input size, so a retry budget can absorb it. Charge() bills
/// emitted rows against the row and byte budgets; loaders, which emit
/// nothing, bill the rows they write with ChargeRows().
class ChunkGate {
 public:
  ChunkGate(const Node& node, const ExecContext* ctx)
      : ctx_(ctx),
        where_("node '" + node.id + "'"),
        batches_(obs::MetricsRegistry::Instance().counter(
            "quarry_etl_chunk_batches_total",
            "Chunks processed by chunk kernels, by operator type",
            {{"op", OpTypeToString(node.type)}})) {}

  Status Enter(const Chunk& chunk) {
    if (ctx_ != nullptr) QUARRY_RETURN_NOT_OK(ctx_->Check(where_));
    return Count(chunk);
  }

  Status Count(const Chunk& chunk) {
    if (++counted_ == 2) QUARRY_FAULT_POINT("etl.exec.vec.chunk");
    batches_.Increment();
    ChunkRowsCounter().Increment(static_cast<int64_t>(chunk.num_rows()));
    return Status::OK();
  }

  Status ChargeRows(size_t rows) const {
    if (ctx_ == nullptr) return Status::OK();
    return ctx_->ChargeRows(static_cast<int64_t>(rows), where_);
  }

  Status Charge(size_t rows, size_t columns) const {
    if (ctx_ == nullptr) return Status::OK();
    QUARRY_RETURN_NOT_OK(ChargeRows(rows));
    return ctx_->ChargeBytes(
        ApproxRowsBytes(static_cast<int64_t>(rows), columns), where_);
  }

 private:
  const ExecContext* ctx_;
  const std::string where_;
  obs::Counter& batches_;
  int counted_ = 0;
};

/// First non-NULL value's type across the chunks' live rows, in row order.
Result<DataType> InferColumnType(const std::vector<Chunk>& chunks,
                                 size_t column) {
  for (const Chunk& chunk : chunks) {
    const ValueSegment& seg = chunk.segment(column);
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      Value v = seg.At(chunk.PhysicalRow(i));
      if (!v.is_null()) return v.type();
    }
  }
  return DataType::kString;  // All-NULL column: arbitrary but stable.
}

/// Appends `in`'s chunks to `out` unchanged: they share the immutable
/// segments (Extraction, Union).
Status AppendShared(const Relation& in, ChunkGate* gate, Relation* out) {
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    QUARRY_RETURN_NOT_OK(gate->Charge(chunk.num_rows(), out->columns.size()));
    out->chunks.push_back(chunk);
  }
  return Status::OK();
}

/// Appends one computed column named `column` to every chunk (Function,
/// SurrogateKey). `segment(chunk)` computes the chunk's new segment on its
/// live rows only, in row order; unselected slots are never computed, so an
/// expression that would fail on a filtered row doesn't.
template <typename SegmentFn>
Result<Relation> AppendColumn(const Relation& in, const std::string& column,
                              ChunkGate* gate, SegmentFn segment) {
  Relation out;
  out.columns = in.columns;
  out.columns.push_back(column);
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    std::vector<Chunk::SegmentPtr> segments = chunk.segments();
    QUARRY_ASSIGN_OR_RETURN(Chunk::SegmentPtr added, segment(chunk));
    segments.push_back(std::move(added));
    QUARRY_RETURN_NOT_OK(gate->Charge(chunk.num_rows(), out.columns.size()));
    out.chunks.emplace_back(chunk.capacity(), std::move(segments),
                            chunk.selection());
  }
  return out;
}

Result<Relation> ScanKernel(const Node& node, const storage::Database& source,
                            int64_t chunk_size, ChunkGate* gate) {
  QUARRY_ASSIGN_OR_RETURN(const storage::Table* table,
                          source.GetTable(Param(node, "table")));
  Relation out;
  for (const storage::Column& c : table->schema().columns()) {
    out.columns.push_back(c.name);
  }
  // The scan's work is the snapshot ScanChunks takes before this loop, so
  // polling the context per chunk here could only discard a finished scan
  // without cutting any latency; the next node's pre-check sees a
  // cancellation just as soon.
  for (Chunk& chunk : table->ScanChunks(chunk_size)) {
    QUARRY_RETURN_NOT_OK(gate->Count(chunk));
    QUARRY_RETURN_NOT_OK(gate->Charge(chunk.num_rows(), out.columns.size()));
    out.chunks.push_back(std::move(chunk));
  }
  return out;
}

Result<Relation> SelectionKernel(const Node& node, const Relation& in,
                                 ChunkGate* gate) {
  QUARRY_ASSIGN_OR_RETURN(Expr::Ptr pred, ParseExpr(Param(node, "predicate")));
  Relation out;
  out.columns = in.columns;
  ColumnEvaluator eval(*pred, in.columns);
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    QUARRY_ASSIGN_OR_RETURN(std::vector<uint32_t> sel, eval.Filter(chunk));
    if (sel.empty()) continue;  // Fully filtered chunks are dropped.
    QUARRY_RETURN_NOT_OK(gate->Charge(sel.size(), out.columns.size()));
    if (sel.size() == chunk.num_rows()) {
      out.chunks.push_back(chunk);  // Nothing filtered: reuse as-is.
    } else {
      out.chunks.emplace_back(
          chunk.capacity(), chunk.segments(),
          std::make_shared<const std::vector<uint32_t>>(std::move(sel)));
    }
  }
  return out;
}

Result<Relation> ProjectionKernel(const Node& node, const Relation& in,
                                  ChunkGate* gate) {
  Relation out;
  out.columns = SplitNonEmpty(Param(node, "columns"));
  QUARRY_ASSIGN_OR_RETURN(auto positions,
                          ColumnPositions(in.columns, out.columns, node.id));
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    QUARRY_RETURN_NOT_OK(gate->Charge(chunk.num_rows(), out.columns.size()));
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(positions.size());
    for (size_t p : positions) segments.push_back(chunk.segment_ptr(p));
    out.chunks.emplace_back(chunk.capacity(), std::move(segments),
                            chunk.selection());
  }
  return out;
}

Result<Relation> FunctionKernel(const Node& node, const Relation& in,
                                ChunkGate* gate) {
  QUARRY_ASSIGN_OR_RETURN(Expr::Ptr expr, ParseExpr(Param(node, "expr")));
  std::string column = Param(node, "column");
  if (column.empty()) {
    return Status::ExecutionError("function '" + node.id +
                                  "' lacks a column param");
  }
  ColumnEvaluator eval(*expr, in.columns);
  return AppendColumn(in, column, gate, [&](const Chunk& chunk) {
    return eval.Evaluate(chunk);
  });
}

Result<Relation> SurrogateKeyKernel(const Node& node, const Relation& in,
                                    ChunkGate* gate) {
  std::vector<std::string> keys = SplitNonEmpty(Param(node, "keys"));
  std::string column = Param(node, "column");
  if (column.empty() || keys.empty()) {
    return Status::ExecutionError("surrogate key '" + node.id +
                                  "' needs column and keys params");
  }
  QUARRY_ASSIGN_OR_RETURN(auto positions,
                          ColumnPositions(in.columns, keys, node.id));
  // Dense ids in first-seen key order: the key's KeyIndex id, plus one.
  KeyIndex ids;
  RowKey key;
  return AppendColumn(
      in, column, gate, [&](const Chunk& chunk) -> Result<Chunk::SegmentPtr> {
        std::vector<int64_t> values(chunk.capacity());
        for (size_t i = 0; i < chunk.num_rows(); ++i) {
          const uint32_t phys = chunk.PhysicalRow(i);
          key.Set(chunk, positions, phys);
          values[phys] = int64_t{ids.Insert(key.bytes()).first} + 1;
        }
        return std::make_shared<const ValueSegment>(
            ValueSegment::FromTyped(std::move(values), {}));
      });
}

/// Inner or left equi-join. Only the output columns in `live` are
/// gathered; every other segment slot of the output chunks stays empty.
Result<Relation> JoinKernel(const Node& node, const Relation& left,
                            const Relation& right, const LiveColumns& live,
                            ChunkGate* gate) {
  std::vector<std::string> left_keys = SplitNonEmpty(Param(node, "left"));
  std::vector<std::string> right_keys = SplitNonEmpty(Param(node, "right"));
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::ExecutionError("join '" + node.id +
                                  "' has mismatched key lists");
  }
  std::string join_type = Param(node, "type");
  if (join_type.empty()) join_type = "inner";
  if (join_type != "inner" && join_type != "left") {
    return Status::ExecutionError("join '" + node.id +
                                  "': unsupported type '" + join_type + "'");
  }
  QUARRY_ASSIGN_OR_RETURN(auto left_pos,
                          ColumnPositions(left.columns, left_keys, node.id));
  QUARRY_ASSIGN_OR_RETURN(
      auto right_pos, ColumnPositions(right.columns, right_keys, node.id));

  // Build on the right input: key id -> matching right rows, in row order.
  // NULL keys never enter the table (SQL: they never match).
  KeyIndex build;
  storage::KeyPostings matches;    // Positions index build_rows.
  std::vector<ChunkRow> build_rows;
  RowKey key;
  for (const Chunk& chunk : right.chunks) {
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      key.Set(chunk, right_pos, phys);
      if (key.has_null()) continue;
      matches.Append(build.Insert(key.bytes()).first);
      build_rows.push_back({&chunk, phys});
    }
  }

  Relation out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  // A live name is gathered wherever it occurs, so a first-occurrence
  // lookup downstream resolves to a gathered column.
  std::vector<bool> gather(out.columns.size());
  int64_t gathered = 0;
  for (size_t c = 0; c < out.columns.size(); ++c) {
    gather[c] = live.Contains(out.columns[c]);
    gathered += gather[c] ? 1 : 0;
  }
  const int64_t skipped = static_cast<int64_t>(out.columns.size()) - gathered;
  const bool left_join = join_type == "left";
  for (const Chunk& chunk : left.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    // Probe: one (left physical row, right row) pair per output row, in
    // probe order; a null right row pads a left-join miss with NULLs.
    std::vector<ChunkRow> left_rows;
    std::vector<ChunkRow> right_rows;
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      key.Set(chunk, left_pos, phys);
      const uint32_t id =
          key.has_null() ? KeyIndex::kNotFound : build.Find(key.bytes());
      if (id == KeyIndex::kNotFound) {
        if (left_join) {
          left_rows.push_back({&chunk, phys});
          right_rows.push_back({});
        }
        continue;
      }
      matches.ForEach(id, [&](uint32_t match) {
        left_rows.push_back({&chunk, phys});
        right_rows.push_back(build_rows[match]);
      });
    }
    if (left_rows.empty()) continue;
    const size_t emitted = left_rows.size();
    QUARRY_RETURN_NOT_OK(gate->Charge(emitted, out.columns.size()));
    std::vector<Chunk::SegmentPtr> segments(out.columns.size());
    const size_t left_width = left.columns.size();
    for (size_t c = 0; c < segments.size(); ++c) {
      if (!gather[c]) continue;
      segments[c] = std::make_shared<const ValueSegment>(
          c < left_width ? storage::GatherColumn(left_rows, c)
                         : storage::GatherColumn(right_rows, c - left_width));
    }
    JoinSegmentsCounter(true).Increment(gathered);
    JoinSegmentsCounter(false).Increment(skipped);
    out.chunks.emplace_back(emitted, std::move(segments));
  }
  return out;
}

Result<Relation> AggregationKernel(const Node& node, const Relation& in,
                                   ChunkGate* gate) {
  std::vector<std::string> group = SplitNonEmpty(Param(node, "group"));
  QUARRY_ASSIGN_OR_RETURN(auto specs, ParseAggSpecs(Param(node, "aggs")));
  QUARRY_ASSIGN_OR_RETURN(auto group_pos,
                          ColumnPositions(in.columns, group, node.id));
  std::vector<int> agg_pos(specs.size(), -1);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].input == "*") continue;
    QUARRY_ASSIGN_OR_RETURN(
        auto pos, ColumnPositions(in.columns, {specs[i].input}, node.id));
    agg_pos[i] = static_cast<int>(pos[0]);
  }

  // Group ids are KeyIndex ids, so groups come out in first-seen order.
  // Group g's state for spec s is states[g * specs.size() + s], and its
  // key columns are gathered from its first input row.
  KeyIndex groups;
  std::vector<AggState> states;
  std::vector<ChunkRow> first_rows;
  RowKey key;
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      key.Set(chunk, group_pos, phys);
      auto [gid, inserted] = groups.Insert(key.bytes());
      if (inserted) {
        first_rows.push_back({&chunk, phys});
        states.resize(states.size() + specs.size());
      }
      AggState* group_states = states.data() + size_t{gid} * specs.size();
      for (size_t s = 0; s < specs.size(); ++s) {
        if (agg_pos[s] < 0) {
          kernel::AccumulateAggStar(&group_states[s]);
          continue;
        }
        kernel::AccumulateAgg(
            &group_states[s],
            chunk.segment(static_cast<size_t>(agg_pos[s])).At(phys));
      }
    }
  }

  Relation out;
  out.columns = group;
  for (const AggSpec& s : specs) out.columns.push_back(s.output);
  const size_t num_groups = first_rows.size();
  QUARRY_RETURN_NOT_OK(gate->Charge(num_groups, out.columns.size()));
  if (num_groups == 0) return out;
  std::vector<Chunk::SegmentPtr> segments;
  segments.reserve(out.columns.size());
  for (size_t p : group_pos) {
    segments.push_back(std::make_shared<const ValueSegment>(
        storage::GatherColumn(first_rows, p)));
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    std::vector<Value> col;
    col.reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      col.push_back(
          kernel::FinalizeAgg(specs[s].function, states[g * specs.size() + s]));
    }
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(std::move(col))));
  }
  out.chunks.emplace_back(num_groups, std::move(segments));
  return out;
}

/// Stable sort on the `by` columns. Plain by design — no product flow
/// emits Sort (imported xLM and test flows do): the input is materialized,
/// sorted as rows and re-cut into chunks of `chunk_size`.
Result<Relation> SortKernel(const Node& node, const Relation& in,
                            int64_t chunk_size, ChunkGate* gate) {
  std::vector<std::string> by = SplitNonEmpty(Param(node, "by"));
  QUARRY_ASSIGN_OR_RETURN(auto positions,
                          ColumnPositions(in.columns, by, node.id));
  const bool desc = Param(node, "desc") == "true";
  std::vector<Row> rows;
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    chunk.AppendRowsTo(&rows);
  }
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (size_t p : positions) {
      int cmp = a[p].Compare(b[p]);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });
  Relation out;
  out.columns = in.columns;
  out.chunks = storage::ChunkRows(rows, in.columns.size(), chunk_size);
  QUARRY_RETURN_NOT_OK(gate->Charge(rows.size(), out.columns.size()));
  return out;
}

Result<Relation> UnionKernel(const Node& node,
                             const std::vector<const Relation*>& inputs,
                             ChunkGate* gate) {
  Relation out;
  out.columns = inputs[0]->columns;
  for (const Relation* in : inputs) {
    if (in->columns != out.columns) {
      return Status::ExecutionError("union '" + node.id +
                                    "' inputs have different schemas");
    }
  }
  for (const Relation* in : inputs) {
    QUARRY_RETURN_NOT_OK(AppendShared(*in, gate, &out));
  }
  return out;
}

/// Writes the input into the target table. The table is created on first
/// use (column types inferred from the data) and gains any column the data
/// has and it lacks; target columns the data lacks load as NULL; with
/// `keys`, a row whose key already exists merges into the existing row by
/// filling its NULL cells (Executor class comment).
Status LoaderKernel(const Node& node, const Relation& data,
                    storage::Database* target, ChunkGate* gate,
                    int64_t* written) {
  std::string table_name = Param(node, "table");
  if (table_name.empty()) {
    return Status::ExecutionError("loader '" + node.id +
                                  "' lacks a table param");
  }
  std::vector<std::string> keys = SplitNonEmpty(Param(node, "keys"));
  if (!target->HasTable(table_name) && data.row_count() == 0) {
    // No rows and no pre-created table: defer creation (column types
    // cannot be inferred from an empty input; guessing would poison later
    // loads into the same table). Deployed designs always pre-create their
    // tables via DDL, so this only affects ad-hoc runs.
    return Status::OK();
  }
  if (!target->HasTable(table_name)) {
    storage::TableSchema schema(table_name);
    for (size_t c = 0; c < data.columns.size(); ++c) {
      QUARRY_ASSIGN_OR_RETURN(DataType type, InferColumnType(data.chunks, c));
      QUARRY_RETURN_NOT_OK(schema.AddColumn({data.columns[c], type, true}));
    }
    if (!keys.empty()) QUARRY_RETURN_NOT_OK(schema.SetPrimaryKey(keys));
    QUARRY_RETURN_NOT_OK(target->CreateTable(std::move(schema)).status());
  }
  QUARRY_ASSIGN_OR_RETURN(storage::Table * table,
                          target->GetTable(table_name));
  // Columns the target lacks are added to it (ALTER TABLE ADD COLUMN), so
  // loaders an integrated flow merged onto one fact table can each
  // contribute their measure columns.
  for (size_t c = 0; c < data.columns.size(); ++c) {
    if (table->schema().ColumnIndex(data.columns[c]).has_value()) continue;
    QUARRY_ASSIGN_OR_RETURN(DataType type, InferColumnType(data.chunks, c));
    QUARRY_RETURN_NOT_OK(table->AddColumn({data.columns[c], type, true}));
  }
  std::vector<int> positions;  // per target column; -1 = NULL
  for (const storage::Column& c : table->schema().columns()) {
    auto it = std::find(data.columns.begin(), data.columns.end(), c.name);
    positions.push_back(it == data.columns.end()
                            ? -1
                            : static_cast<int>(it - data.columns.begin()));
  }
  std::vector<size_t> key_positions;
  if (!keys.empty()) {
    QUARRY_ASSIGN_OR_RETURN(key_positions,
                            ColumnPositions(data.columns, keys, node.id));
  }
  // Merge semantics: key id -> row index in the target table. The first
  // existing row with a key wins; loaded rows add their keys as they land.
  const bool keyed = !key_positions.empty();
  KeyIndex key_ids;
  std::vector<size_t> key_rows;
  RowKey key;
  if (keyed) {
    std::vector<size_t> tk;
    for (const std::string& k : keys) {
      tk.push_back(*table->schema().ColumnIndex(k));
    }
    for (size_t r = 0; r < table->num_rows(); ++r) {
      key.Set(table->rows()[r], tk);
      if (key_ids.Insert(key.bytes()).second) key_rows.push_back(r);
    }
  }
  for (const Chunk& chunk : data.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      if (keyed) {
        key.Set(chunk, key_positions, phys);
        const uint32_t id = key_ids.Find(key.bytes());
        if (id != KeyIndex::kNotFound) {
          // Merge: fill NULL cells the input can provide.
          const size_t target_row = key_rows[id];
          for (size_t c = 0; c < positions.size(); ++c) {
            if (positions[c] < 0) continue;
            const ValueSegment& incoming =
                chunk.segment(static_cast<size_t>(positions[c]));
            if (incoming.IsNull(phys)) continue;
            if (!table->rows()[target_row][c].is_null()) continue;
            QUARRY_RETURN_NOT_OK(
                table->SetCell(target_row, c, incoming.At(phys)));
          }
          continue;
        }
      }
      // The row, built once in target column order.
      Row out;
      out.reserve(positions.size());
      for (int p : positions) {
        out.push_back(p < 0 ? Value::Null()
                            : chunk.segment(static_cast<size_t>(p)).At(phys));
      }
      QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
      if (keyed) {
        key_ids.Insert(key.bytes());
        key_rows.push_back(table->num_rows() - 1);
      }
      ++*written;
    }
    // Loaders are sinks: they charge the rows they consumed.
    QUARRY_RETURN_NOT_OK(gate->ChargeRows(chunk.num_rows()));
  }
  // Mid-write fault site: fires after the rows above landed in the target,
  // leaving exactly the half-written state the loader snapshot in
  // ExecuteNode must roll back before a retry.
  QUARRY_FAULT_POINT("etl.exec.Loader.write");
  return Status::OK();
}

}  // namespace

Result<Relation> Executor::RunNode(const Node& node,
                                   const std::vector<const Relation*>& inputs,
                                   const LiveColumns& live,
                                   LoaderEffect* loader,
                                   const ExecContext* ctx,
                                   const ExecOptions& options) {
  QUARRY_FAULT_POINT(std::string("etl.exec.") + OpTypeToString(node.type));
  ChunkGate gate(node, ctx);
  auto input = [&](size_t i) -> const Relation& { return *inputs[i]; };
  switch (node.type) {
    case OpType::kDatastore:
      return ScanKernel(node, *source_, options.chunk_size, &gate);
    case OpType::kExtraction: {
      Relation out;
      out.columns = input(0).columns;
      QUARRY_RETURN_NOT_OK(AppendShared(input(0), &gate, &out));
      return out;
    }
    case OpType::kSelection:
      return SelectionKernel(node, input(0), &gate);
    case OpType::kProjection:
      return ProjectionKernel(node, input(0), &gate);
    case OpType::kFunction:
      return FunctionKernel(node, input(0), &gate);
    case OpType::kSurrogateKey:
      return SurrogateKeyKernel(node, input(0), &gate);
    case OpType::kJoin:
      if (inputs.size() != 2) {
        return Status::ExecutionError("join '" + node.id +
                                      "' needs exactly 2 inputs");
      }
      return JoinKernel(node, input(0), input(1), live, &gate);
    case OpType::kAggregation:
      return AggregationKernel(node, input(0), &gate);
    case OpType::kSort:
      return SortKernel(node, input(0), options.chunk_size, &gate);
    case OpType::kUnion:
      if (inputs.size() < 2) {
        return Status::ExecutionError("union '" + node.id +
                                      "' needs >= 2 inputs");
      }
      return UnionKernel(node, inputs, &gate);
    case OpType::kLoader: {
      int64_t written = 0;
      QUARRY_RETURN_NOT_OK(
          LoaderKernel(node, input(0), target_, &gate, &written));
      loader->table = Param(node, "table");
      loader->rows = written;
      loader->fired = true;
      Relation out;  // Loaders are sinks: no chunks.
      out.columns = input(0).columns;
      return out;
    }
  }
  return Status::Internal("unknown operator type");
}

}  // namespace quarry::etl
