// The ETL executor's operator kernels (DESIGN.md §8): one chunk kernel per
// operator type, and no other execution path.
//
// Every kernel consumes its inputs as storage::Chunks and emits a Relation
// of chunks. A ChunkGate runs before each input chunk: it checks the
// request context and, once per node attempt, consults the mid-stream
// fault site ("etl.exec.vec.chunk"); emitted rows are charged against the
// budgets chunk by chunk. Results must not depend on chunk boundaries: the
// differential harness (tests/etl_parallel_test.cc, tests/property_test.cc
// P8) compares every kernel with the row-at-a-time reference executor in
// tests/etl_reference.h — identical row order, identical Values, identical
// error statuses — at chunk sizes 1, 7, 1024 and rows+1.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "etl/exec/executor.h"
#include "etl/exec/kernel_util.h"
#include "etl/expr.h"
#include "etl/schema_inference.h"
#include "obs/metrics.h"

namespace quarry::etl {

using storage::Chunk;
using storage::DataType;
using storage::Row;
using storage::Value;
using storage::ValueSegment;
using kernel::AggState;
using kernel::ColumnPositions;
using kernel::ExtractKey;
using kernel::Param;
using kernel::RowKeyEq;
using kernel::RowKeyHash;
using kernel::SplitNonEmpty;

namespace {

obs::Counter& ChunkRowsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_chunk_rows_total", "Rows processed by chunk kernels");
  return c;
}

/// Lower-bound memory estimate for `rows` rows of `columns` columns — the
/// unit of the intermediate-bytes budget. Ignores string payloads so a
/// charge costs O(1), and is linear in rows so a node's per-chunk charges
/// sum to the same total however its input was chunked.
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

/// Expression evaluation against a chunk row: Expr::EvalWith with a hash
/// map in place of RowView's linear name scan (first occurrence wins, like
/// RowView::Get) and values read straight from the segments.
class ChunkEval {
 public:
  explicit ChunkEval(const std::vector<std::string>& columns) {
    for (size_t i = 0; i < columns.size(); ++i) {
      index_.emplace(columns[i], i);  // Keeps the first duplicate, as Get().
    }
  }

  Result<Value> Eval(const Expr& e, const Chunk& chunk, uint32_t phys) const {
    return e.EvalWith([&](const std::string& name) -> Result<Value> {
      auto it = index_.find(name);
      if (it == index_.end()) {
        return Status::NotFound("column '" + name + "' in row");
      }
      return chunk.segment(it->second).At(phys);
    });
  }

 private:
  std::unordered_map<std::string, size_t> index_;
};

// ---------------------------------------------------------------------------
// Fast filter path: `col cmp literal` / `col cmp col` predicates over
// numeric or date segments compare on the typed payloads directly. The
// comparison must agree with Value::Compare: exact int64 when both sides
// are INT, sign-of-difference through double otherwise, raw day counts for
// dates. Anything the fast path cannot prove equivalent falls back to
// ChunkEval for that chunk (segment reps can differ chunk to chunk).

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::optional<CmpOp> ParseCmpOp(const std::string& op) {
  if (op == "=") return CmpOp::kEq;
  if (op == "<>") return CmpOp::kNe;
  if (op == "<") return CmpOp::kLt;
  if (op == "<=") return CmpOp::kLe;
  if (op == ">") return CmpOp::kGt;
  if (op == ">=") return CmpOp::kGe;
  return std::nullopt;
}

CmpOp MirrorCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

bool CmpKeep(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

struct FastCompare {
  CmpOp op = CmpOp::kEq;
  size_t lhs_col = 0;
  bool rhs_is_col = false;
  size_t rhs_col = 0;
  Value literal;  // When !rhs_is_col; always non-NULL numeric or date.
};

std::optional<size_t> FirstIndexOf(const std::vector<std::string>& columns,
                                   const std::string& name) {
  auto it = std::find(columns.begin(), columns.end(), name);
  if (it == columns.end()) return std::nullopt;
  return static_cast<size_t>(it - columns.begin());
}

std::optional<FastCompare> TryFastCompare(
    const Expr& pred, const std::vector<std::string>& columns) {
  if (pred.kind() != Expr::Kind::kBinary) return std::nullopt;
  std::optional<CmpOp> op = ParseCmpOp(pred.op());
  if (!op.has_value()) return std::nullopt;
  const Expr& lhs = *pred.args()[0];
  const Expr& rhs = *pred.args()[1];

  auto build = [&](const Expr& col_side, const Expr& other,
                   CmpOp cmp) -> std::optional<FastCompare> {
    std::optional<size_t> ci = FirstIndexOf(columns, col_side.column());
    if (!ci.has_value()) return std::nullopt;  // Generic path errors as Get.
    FastCompare f;
    f.op = cmp;
    f.lhs_col = *ci;
    if (other.kind() == Expr::Kind::kColumn) {
      std::optional<size_t> ri = FirstIndexOf(columns, other.column());
      if (!ri.has_value()) return std::nullopt;
      f.rhs_is_col = true;
      f.rhs_col = *ri;
      return f;
    }
    if (other.kind() != Expr::Kind::kLiteral) return std::nullopt;
    const Value& lit = other.literal();
    if (!lit.is_numeric() && !lit.is_date()) return std::nullopt;
    f.literal = lit;
    return f;
  };

  if (lhs.kind() == Expr::Kind::kColumn) return build(lhs, rhs, *op);
  if (rhs.kind() == Expr::Kind::kColumn &&
      lhs.kind() == Expr::Kind::kLiteral) {
    return build(rhs, lhs, MirrorCmpOp(*op));
  }
  return std::nullopt;
}

bool NumericRep(ValueSegment::Rep rep) {
  return rep == ValueSegment::Rep::kInt64 ||
         rep == ValueSegment::Rep::kDouble;
}

/// True when the fast comparison is provably Value::Compare-equivalent for
/// this chunk's segment representations.
bool FastCompareEligible(const FastCompare& f, const Chunk& chunk) {
  const ValueSegment& ls = chunk.segment(f.lhs_col);
  if (f.rhs_is_col) {
    const ValueSegment& rs = chunk.segment(f.rhs_col);
    return (NumericRep(ls.rep()) && NumericRep(rs.rep())) ||
           (ls.rep() == ValueSegment::Rep::kDate &&
            rs.rep() == ValueSegment::Rep::kDate);
  }
  return (NumericRep(ls.rep()) && f.literal.is_numeric()) ||
         (ls.rep() == ValueSegment::Rep::kDate && f.literal.is_date());
}

double SegDouble(const ValueSegment& s, uint32_t phys) {
  return s.rep() == ValueSegment::Rep::kInt64
             ? static_cast<double>(s.ints()[phys])
             : s.doubles()[phys];
}

/// Fills `sel` with the physical rows of `chunk` passing the fast
/// comparison. NULL on either side never passes (EvalComparison → NULL).
void RunFastCompare(const FastCompare& f, const Chunk& chunk,
                    std::vector<uint32_t>* sel) {
  const ValueSegment& ls = chunk.segment(f.lhs_col);
  const ValueSegment* rs = f.rhs_is_col ? &chunk.segment(f.rhs_col) : nullptr;
  const size_t n = chunk.num_rows();
  const bool date_cmp = ls.rep() == ValueSegment::Rep::kDate;
  const bool int_cmp =
      !date_cmp && ls.rep() == ValueSegment::Rep::kInt64 &&
      (f.rhs_is_col ? rs->rep() == ValueSegment::Rep::kInt64
                    : f.literal.is_int());
  const int64_t lit_int = !f.rhs_is_col && f.literal.is_int()
                              ? f.literal.as_int()
                              : 0;
  const double lit_dbl =
      !f.rhs_is_col && f.literal.is_numeric() ? f.literal.as_double() : 0.0;
  const int32_t lit_date =
      !f.rhs_is_col && f.literal.is_date() ? f.literal.as_date_days() : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t phys = chunk.PhysicalRow(i);
    if (ls.IsNull(phys) || (rs != nullptr && rs->IsNull(phys))) continue;
    int cmp;
    if (date_cmp) {
      int32_t a = ls.dates()[phys];
      int32_t b = rs != nullptr ? rs->dates()[phys] : lit_date;
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else if (int_cmp) {
      int64_t a = ls.ints()[phys];
      int64_t b = rs != nullptr ? rs->ints()[phys] : lit_int;
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      double a = SegDouble(ls, phys);
      double b = rs != nullptr ? SegDouble(*rs, phys) : lit_dbl;
      cmp = Sign(a - b);
    }
    if (CmpKeep(f.op, cmp)) sel->push_back(phys);
  }
}

/// Group key of `chunk`'s physical row at `positions`.
Row ChunkKey(const Chunk& chunk, const std::vector<size_t>& positions,
             uint32_t phys) {
  Row key;
  key.reserve(positions.size());
  for (size_t p : positions) key.push_back(chunk.segment(p).At(phys));
  return key;
}

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

bool AnyNull(const Row& key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value& v) { return v.is_null(); });
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
/// SurrogateKey). `value(chunk, phys)` runs on live rows only, in row
/// order; dead (filtered-out) slots stay NULL and are never computed, so an
/// expression that would fail on a filtered row doesn't.
template <typename ValueFn>
Result<Relation> AppendColumn(const Relation& in, const std::string& column,
                              ChunkGate* gate, ValueFn value) {
  Relation out;
  out.columns = in.columns;
  out.columns.push_back(column);
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    std::vector<Value> values(chunk.capacity());
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      QUARRY_ASSIGN_OR_RETURN(values[phys], value(chunk, phys));
    }
    std::vector<Chunk::SegmentPtr> segments = chunk.segments();
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(std::move(values))));
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
  ChunkEval eval(in.columns);
  std::optional<FastCompare> fast = TryFastCompare(*pred, in.columns);
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    std::vector<uint32_t> sel;
    if (fast.has_value() && FastCompareEligible(*fast, chunk)) {
      RunFastCompare(*fast, chunk, &sel);
    } else {
      for (size_t i = 0; i < chunk.num_rows(); ++i) {
        const uint32_t phys = chunk.PhysicalRow(i);
        QUARRY_ASSIGN_OR_RETURN(Value v, eval.Eval(*pred, chunk, phys));
        if (ExprTruthy(v)) sel.push_back(phys);
      }
    }
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
  ChunkEval eval(in.columns);
  return AppendColumn(in, column, gate,
                      [&](const Chunk& chunk, uint32_t phys) {
                        return eval.Eval(*expr, chunk, phys);
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
  // Dense ids in first-seen key order.
  std::unordered_map<Row, int64_t, RowKeyHash, RowKeyEq> ids;
  return AppendColumn(
      in, column, gate,
      [&](const Chunk& chunk, uint32_t phys) -> Result<Value> {
        auto it = ids.try_emplace(ChunkKey(chunk, positions, phys),
                                  static_cast<int64_t>(ids.size()) + 1)
                      .first;
        return Value::Int(it->second);
      });
}

Result<Relation> JoinKernel(const Node& node, const Relation& left,
                            const Relation& right, ChunkGate* gate) {
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

  // Build on the right input: key -> matching (chunk, physical row) pairs
  // in row order. NULL keys never enter the table (SQL: they never match).
  struct RowRef {
    const Chunk* chunk;
    uint32_t phys;
  };
  std::unordered_map<Row, std::vector<RowRef>, RowKeyHash, RowKeyEq> build;
  for (const Chunk& chunk : right.chunks) {
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      Row key = ChunkKey(chunk, right_pos, phys);
      if (AnyNull(key)) continue;
      build[std::move(key)].push_back({&chunk, phys});
    }
  }

  Relation out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  const bool left_join = join_type == "left";
  for (const Chunk& chunk : left.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    // Probe: one (left physical row, right row) pair per output row, in
    // probe order; a null right row pads a left-join miss with NULLs.
    std::vector<uint32_t> left_phys;
    std::vector<const RowRef*> right_rows;
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      Row key = ChunkKey(chunk, left_pos, phys);
      auto it = AnyNull(key) ? build.end() : build.find(key);
      if (it == build.end()) {
        if (left_join) {
          left_phys.push_back(phys);
          right_rows.push_back(nullptr);
        }
        continue;
      }
      for (const RowRef& ref : it->second) {
        left_phys.push_back(phys);
        right_rows.push_back(&ref);
      }
    }
    if (left_phys.empty()) continue;
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(out.columns.size());
    for (size_t c = 0; c < left.columns.size(); ++c) {
      segments.push_back(std::make_shared<const ValueSegment>(
          chunk.segment(c).Gather(left_phys)));
    }
    for (size_t c = 0; c < right.columns.size(); ++c) {
      std::vector<Value> col;
      col.reserve(right_rows.size());
      for (const RowRef* ref : right_rows) {
        col.push_back(ref == nullptr ? Value::Null()
                                     : ref->chunk->segment(c).At(ref->phys));
      }
      segments.push_back(std::make_shared<const ValueSegment>(
          ValueSegment::FromValues(std::move(col))));
    }
    QUARRY_RETURN_NOT_OK(gate->Charge(left_phys.size(), out.columns.size()));
    out.chunks.emplace_back(left_phys.size(), std::move(segments));
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

  std::unordered_map<Row, std::vector<AggState>, RowKeyHash, RowKeyEq> groups;
  std::vector<Row> group_order;  // First-seen order: deterministic output.
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      Row key = ChunkKey(chunk, group_pos, phys);
      auto [it, inserted] =
          groups.try_emplace(key, std::vector<AggState>(specs.size()));
      if (inserted) group_order.push_back(key);
      std::vector<AggState>& states = it->second;
      for (size_t s = 0; s < specs.size(); ++s) {
        if (specs[s].input == "*") {
          kernel::AccumulateAggStar(&states[s]);
          continue;
        }
        kernel::AccumulateAgg(
            &states[s], chunk.segment(static_cast<size_t>(agg_pos[s])).At(phys));
      }
    }
  }

  Relation out;
  out.columns = group;
  for (const AggSpec& s : specs) out.columns.push_back(s.output);
  QUARRY_RETURN_NOT_OK(gate->Charge(group_order.size(), out.columns.size()));
  if (group_order.empty()) return out;
  std::vector<std::vector<Value>> cols(out.columns.size());
  for (auto& col : cols) col.reserve(group_order.size());
  for (const Row& key : group_order) {
    const std::vector<AggState>& states = groups.at(key);
    for (size_t g = 0; g < group_pos.size(); ++g) cols[g].push_back(key[g]);
    for (size_t s = 0; s < specs.size(); ++s) {
      cols[group_pos.size() + s].push_back(
          kernel::FinalizeAgg(specs[s].function, states[s]));
    }
  }
  std::vector<Chunk::SegmentPtr> segments;
  segments.reserve(cols.size());
  for (auto& col : cols) {
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(std::move(col))));
  }
  out.chunks.emplace_back(group_order.size(), std::move(segments));
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
  // key -> row index in the target table (merge semantics).
  std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> existing_rows;
  if (!key_positions.empty()) {
    std::vector<size_t> tk;
    for (const std::string& k : keys) {
      tk.push_back(*table->schema().ColumnIndex(k));
    }
    for (size_t r = 0; r < table->num_rows(); ++r) {
      existing_rows.emplace(ExtractKey(table->rows()[r], tk), r);
    }
  }
  for (const Chunk& chunk : data.chunks) {
    QUARRY_RETURN_NOT_OK(gate->Enter(chunk));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      Row row;
      row.reserve(data.columns.size());
      for (size_t c = 0; c < data.columns.size(); ++c) {
        row.push_back(chunk.segment(c).At(phys));
      }
      Row key;
      if (!key_positions.empty()) {
        key = ExtractKey(row, key_positions);
        auto it = existing_rows.find(key);
        if (it != existing_rows.end()) {
          // Merge: fill NULL cells the input can provide.
          const size_t target_row = it->second;
          for (size_t c = 0; c < positions.size(); ++c) {
            if (positions[c] < 0) continue;
            const Value& incoming = row[static_cast<size_t>(positions[c])];
            if (incoming.is_null()) continue;
            if (!table->rows()[target_row][c].is_null()) continue;
            QUARRY_RETURN_NOT_OK(table->SetCell(target_row, c, incoming));
          }
          continue;
        }
      }
      Row out;
      out.reserve(positions.size());
      for (int p : positions) {
        out.push_back(p < 0 ? Value::Null() : row[static_cast<size_t>(p)]);
      }
      QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
      if (!key_positions.empty()) {
        existing_rows.emplace(std::move(key), table->num_rows() - 1);
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
      return JoinKernel(node, input(0), input(1), &gate);
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
