#include "etl/exec/column_eval.h"

#include <algorithm>
#include <array>
#include <memory>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"

namespace quarry::etl {

using storage::Chunk;
using storage::Value;
using storage::ValueSegment;
using Rep = ValueSegment::Rep;

namespace {

/// Live rows Selection and Function evaluated, by whether every node of the
/// expression ran in typed loops or some node went slot by slot through the
/// scalar primitives.
obs::Counter& ExprRowsCounter(bool scalar) {
  static obs::Counter& typed_c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_expr_rows_total",
      "Rows Selection and Function evaluated, by evaluator path",
      {{"path", "typed"}});
  static obs::Counter& scalar_c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_expr_rows_total", "", {{"path", "scalar"}});
  return scalar ? scalar_c : typed_c;
}

/// One node's value over the chunk's physical rows: the input's own
/// segment for a column reference, a one-slot segment read at every row
/// (step 0) for a literal, a fresh segment for an operator. No segment
/// means NULL at every row.
struct Col {
  Chunk::SegmentPtr seg;
  uint32_t step = 1;
};

/// Typed read access to a Col; `T` as in ValueSegment::FromTyped.
template <typename T>
struct Slots {
  const T* data;
  const uint8_t* nulls;  ///< nullptr: no NULLs.
  uint32_t step;

  bool null(uint32_t p) const {
    return nulls != nullptr && nulls[p * step] != 0;
  }
  const T& operator[](uint32_t p) const { return data[p * step]; }
};

template <typename T>
Slots<T> SlotsOf(const Col& c) {
  const ValueSegment& s = *c.seg;
  const T* data;
  if constexpr (std::is_same_v<T, uint8_t>) {
    data = s.bools().data();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    data = s.ints().data();
  } else if constexpr (std::is_same_v<T, double>) {
    data = s.doubles().data();
  } else if constexpr (std::is_same_v<T, std::string>) {
    data = s.strings().data();
  } else {
    data = s.dates().data();
  }
  return {data, s.has_nulls() ? s.nulls().data() : nullptr, c.step};
}

Value ValueAt(const Col& c, uint32_t p) {
  return c.seg == nullptr ? Value::Null() : c.seg->At(p * c.step);
}

template <typename T>
Col Fresh(std::vector<T> payload, std::vector<uint8_t> nulls = {}) {
  return {std::make_shared<const ValueSegment>(
      ValueSegment::FromTyped(std::move(payload), std::move(nulls)))};
}

bool IsNumeric(Rep r) { return r == Rep::kInt64 || r == Rep::kDouble; }

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

/// Value::Compare of two non-NULL slots of one type rank.
template <typename A, typename B>
int CompareSlots(const A& x, const B& y) {
  if constexpr (std::is_same_v<A, std::string>) {
    const int c = x.compare(y);
    return (c > 0) - (c < 0);
  } else if constexpr (std::is_same_v<A, double> ||
                       std::is_same_v<B, double>) {
    return Sign(static_cast<double>(x) - static_cast<double>(y));
  } else {
    return (x > y) - (x < y);
  }
}

/// Calls fn(A{}, B{}) with the payload types of two numeric reps.
template <typename Fn>
auto WithNumericTypes(Rep ra, Rep rb, Fn fn) {
  if (ra == Rep::kInt64) {
    return rb == Rep::kInt64 ? fn(int64_t{}, int64_t{})
                             : fn(int64_t{}, double{});
  }
  return rb == Rep::kInt64 ? fn(double{}, int64_t{}) : fn(double{}, double{});
}

/// What a typed loop made of one slot.
enum class Slot { kValue, kNull, kFail };

std::vector<uint32_t> LiveRows(const Chunk& chunk) {
  if (chunk.has_selection()) return *chunk.selection();
  std::vector<uint32_t> rows(chunk.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<uint32_t>(i);
  }
  return rows;
}

}  // namespace

/// One evaluation of the compiled nodes over one chunk. `rows` arguments
/// are physical rows in ascending order. A failure at row p keeps the
/// lowest failing row's status and drops p and every later row from the
/// rows of every node evaluated after it, so each row stops at its first
/// failure and the status kept is that of the first failing row.
class ColumnEvaluator::Run {
 public:
  using Op = Node::Op;

  Run(const std::vector<Node>& nodes, const Chunk& chunk)
      : nodes_(nodes), chunk_(chunk) {}

  bool failed() const { return fail_row_ != kNone; }
  const Status& status() const { return status_; }
  bool scalar() const { return scalar_; }

  /// The value of node `idx` at `rows`; drops failed rows from `rows`.
  Col Compute(int idx, std::vector<uint32_t>* rows);

  /// ExprTruthy of `c` at `rows`, written into `out`.
  void Truth(const Col& c, const std::vector<uint32_t>& rows,
             std::vector<uint8_t>* out);

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  void Fail(uint32_t row, Status status) {
    fail_row_ = row;
    status_ = std::move(status);
  }

  void Drop(std::vector<uint32_t>* rows) const {
    if (fail_row_ == kNone) return;
    rows->erase(std::lower_bound(rows->begin(), rows->end(), fail_row_),
                rows->end());
  }

  Col Unary(const Node& n, const Col& a, const std::vector<uint32_t>& rows);
  Col Binary(const Node& n, const Col& a, const Col& b,
             const std::vector<uint32_t>& rows);
  Col Arithmetic(const Node& n, const Col& a, const Col& b,
                 const std::vector<uint32_t>& rows);
  template <typename A, typename B>
  Col Compare(const Node& n, const Col& a, const Col& b,
              const std::vector<uint32_t>& rows);

  /// A comparison operator's answer for Compare() = -1, 0, +1.
  static std::array<uint8_t, 3> Answers(Op op) {
    switch (op) {
      case Op::kEq: return {0, 1, 0};
      case Op::kNe: return {1, 0, 1};
      case Op::kLt: return {1, 0, 0};
      case Op::kLe: return {1, 1, 0};
      case Op::kGt: return {0, 0, 1};
      default: return {0, 1, 1};  // kGe
    }
  }

  /// The scalar primitive's answer for node `n` at row `p`.
  static Result<Value> ScalarAt(const Node& n, const Col& a, const Col* b,
                                uint32_t p);
  /// Node `n` slot by slot through the scalar primitives.
  Col Scalar(const Node& n, const Col& a, const Col* b,
             const std::vector<uint32_t>& rows);

  /// A fresh R column over `rows`: NULL where null_in(p), else fn(p, &out)
  /// decides; a failing slot takes its status from the scalar primitive.
  template <typename R, typename NullFn, typename Fn>
  Col Map(const Node& n, const Col& a, const Col* b,
          const std::vector<uint32_t>& rows, NullFn null_in, Fn fn);
  /// Map over two typed operands, NULL where either is.
  template <typename R, typename A, typename B, typename Fn>
  Col Map2(const Node& n, const Col& a, const Col& b,
           const std::vector<uint32_t>& rows, Fn fn) {
    const Slots<A> x = SlotsOf<A>(a);
    const Slots<B> y = SlotsOf<B>(b);
    return Map<R>(
        n, a, &b, rows, [&](uint32_t p) { return x.null(p) || y.null(p); },
        [&](uint32_t p, R* r) { return fn(x[p], y[p], r); });
  }

  const std::vector<Node>& nodes_;
  const Chunk& chunk_;
  uint32_t fail_row_ = kNone;
  Status status_;
  bool scalar_ = false;
};

Col ColumnEvaluator::Run::Compute(int idx, std::vector<uint32_t>* rows) {
  Drop(rows);
  const Node& n = nodes_[static_cast<size_t>(idx)];
  switch (n.op) {
    case Op::kLiteral:
      return {n.literal, 0};
    case Op::kColumn:
      if (n.column >= 0) {
        return {chunk_.segment_ptr(static_cast<size_t>(n.column))};
      }
      if (!rows->empty()) {
        Fail(rows->front(),
             Status::NotFound("column '" + n.text + "' in row"));
      }
      return {};
    case Op::kNot: {
      Col a = Compute(n.lhs, rows);
      Drop(rows);
      std::vector<uint8_t> out(chunk_.capacity());
      Truth(a, *rows, &out);
      for (uint32_t p : *rows) out[p] ^= 1;
      return Fresh(std::move(out));
    }
    case Op::kAnd:
    case Op::kOr: {
      Col a = Compute(n.lhs, rows);
      Drop(rows);
      std::vector<uint8_t> out(chunk_.capacity());
      Truth(a, *rows, &out);
      // The right operand decides the rows the left one leaves open: TRUE
      // ones under AND, the rest under OR.
      const uint8_t open = n.op == Op::kAnd ? 1 : 0;
      std::vector<uint32_t> undecided;
      for (uint32_t p : *rows) {
        if (out[p] == open) undecided.push_back(p);
      }
      Col b = Compute(n.rhs, &undecided);
      Drop(&undecided);
      Truth(b, undecided, &out);
      Drop(rows);
      return Fresh(std::move(out));
    }
    default:
      break;
  }
  Col a = Compute(n.lhs, rows);
  if (n.rhs < 0) {
    Drop(rows);
    return Unary(n, a, *rows);
  }
  Col b = Compute(n.rhs, rows);
  Drop(rows);
  return Binary(n, a, b, *rows);
}

void ColumnEvaluator::Run::Truth(const Col& c,
                                 const std::vector<uint32_t>& rows,
                                 std::vector<uint8_t>* out) {
  const Rep rep = c.seg == nullptr ? Rep::kInt64 : c.seg->rep();
  if (rep == Rep::kBool) {
    const Slots<uint8_t> s = SlotsOf<uint8_t>(c);
    for (uint32_t p : rows) (*out)[p] = !s.null(p) && s[p] != 0;
  } else if (rep == Rep::kMixed) {
    scalar_ = true;
    for (uint32_t p : rows) (*out)[p] = ExprTruthy(ValueAt(c, p));
  } else {
    for (uint32_t p : rows) (*out)[p] = 0;  // NULL or not a boolean.
  }
}

Col ColumnEvaluator::Run::Unary(const Node& n, const Col& a,
                                const std::vector<uint32_t>& rows) {
  if (n.op == Op::kNeg) {
    if (a.seg == nullptr) return {};
    if (a.seg->rep() == Rep::kInt64) {
      const Slots<int64_t> x = SlotsOf<int64_t>(a);
      return Map<int64_t>(
          n, a, nullptr, rows, [&](uint32_t p) { return x.null(p); },
          [&](uint32_t p, int64_t* r) {
            return __builtin_sub_overflow(int64_t{0}, x[p], r) ? Slot::kFail
                                                               : Slot::kValue;
          });
    }
    if (a.seg->rep() == Rep::kDouble) {
      const Slots<double> x = SlotsOf<double>(a);
      return Map<double>(
          n, a, nullptr, rows, [&](uint32_t p) { return x.null(p); },
          [&](uint32_t p, double* r) {
            *r = -x[p];
            return Slot::kValue;
          });
    }
  }
  return Scalar(n, a, nullptr, rows);
}

Col ColumnEvaluator::Run::Binary(const Node& n, const Col& a, const Col& b,
                                 const std::vector<uint32_t>& rows) {
  // A NULL operand makes any arithmetic or comparison NULL, and no such
  // operator fails on one.
  if (a.seg == nullptr || b.seg == nullptr) return {};
  const Rep ra = a.seg->rep();
  const Rep rb = b.seg->rep();
  switch (n.op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
      if (IsNumeric(ra) && IsNumeric(rb)) return Arithmetic(n, a, b, rows);
      if (n.op == Op::kAdd && ra == Rep::kString && rb == Rep::kString) {
        return Map2<std::string, std::string, std::string>(
            n, a, b, rows,
            [](const std::string& x, const std::string& y, std::string* r) {
              *r = x + y;
              return Slot::kValue;
            });
      }
      break;
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      if (IsNumeric(ra) && IsNumeric(rb)) {
        return WithNumericTypes(ra, rb, [&](auto x, auto y) {
          return Compare<decltype(x), decltype(y)>(n, a, b, rows);
        });
      }
      if (ra == Rep::kString && rb == Rep::kString) {
        return Compare<std::string, std::string>(n, a, b, rows);
      }
      if (ra == Rep::kDate && rb == Rep::kDate) {
        return Compare<int32_t, int32_t>(n, a, b, rows);
      }
      if (ra == Rep::kBool && rb == Rep::kBool) {
        return Compare<uint8_t, uint8_t>(n, a, b, rows);
      }
      break;
    default:
      break;
  }
  return Scalar(n, a, &b, rows);
}

Col ColumnEvaluator::Run::Arithmetic(const Node& n, const Col& a,
                                     const Col& b,
                                     const std::vector<uint32_t>& rows) {
  const Op op = n.op;
  return WithNumericTypes(a.seg->rep(), b.seg->rep(), [&](auto ta, auto tb) {
    using A = decltype(ta);
    using B = decltype(tb);
    if (op == Op::kDiv) {
      return Map2<double, A, B>(n, a, b, rows, [](A x, B y, double* r) {
        const double denom = static_cast<double>(y);
        if (denom == 0.0) return Slot::kNull;  // SQL raises; ETL nulls out.
        *r = static_cast<double>(x) / denom;
        return Slot::kValue;
      });
    }
    if constexpr (std::is_same_v<A, int64_t> && std::is_same_v<B, int64_t>) {
      return Map2<int64_t, A, B>(n, a, b, rows,
                                 [op](int64_t x, int64_t y, int64_t* r) {
                                   const bool overflow =
                                       op == Op::kAdd
                                           ? __builtin_add_overflow(x, y, r)
                                       : op == Op::kSub
                                           ? __builtin_sub_overflow(x, y, r)
                                           : __builtin_mul_overflow(x, y, r);
                                   return overflow ? Slot::kFail
                                                   : Slot::kValue;
                                 });
    } else {
      return Map2<double, A, B>(n, a, b, rows, [op](A x, B y, double* r) {
        const double u = static_cast<double>(x);
        const double v = static_cast<double>(y);
        *r = op == Op::kAdd ? u + v : op == Op::kSub ? u - v : u * v;
        return Slot::kValue;
      });
    }
  });
}

template <typename A, typename B>
Col ColumnEvaluator::Run::Compare(const Node& n, const Col& a, const Col& b,
                                  const std::vector<uint32_t>& rows) {
  const std::array<uint8_t, 3> answers = Answers(n.op);
  return Map2<uint8_t, A, B>(n, a, b, rows,
                             [&](const A& x, const B& y, uint8_t* r) {
                               *r = answers[CompareSlots(x, y) + 1];
                               return Slot::kValue;
                             });
}

Result<Value> ColumnEvaluator::Run::ScalarAt(const Node& n, const Col& a,
                                             const Col* b, uint32_t p) {
  if (b == nullptr) return EvalUnary(n.text, ValueAt(a, p));
  switch (n.op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
      return EvalArithmetic(n.text, ValueAt(a, p), ValueAt(*b, p));
    default:
      return EvalComparison(n.text, ValueAt(a, p), ValueAt(*b, p));
  }
}

Col ColumnEvaluator::Run::Scalar(const Node& n, const Col& a, const Col* b,
                                 const std::vector<uint32_t>& rows) {
  scalar_ = true;
  std::vector<Value> out(chunk_.capacity());
  for (uint32_t p : rows) {
    Result<Value> v = ScalarAt(n, a, b, p);
    if (!v.ok()) {
      Fail(p, v.status());
      break;
    }
    out[p] = std::move(*v);
  }
  return {std::make_shared<const ValueSegment>(
      ValueSegment::FromValues(std::move(out)))};
}

template <typename R, typename NullFn, typename Fn>
Col ColumnEvaluator::Run::Map(const Node& n, const Col& a, const Col* b,
                              const std::vector<uint32_t>& rows,
                              NullFn null_in, Fn fn) {
  std::vector<R> out(chunk_.capacity());
  std::vector<uint8_t> nulls;
  for (uint32_t p : rows) {
    const Slot slot = null_in(p) ? Slot::kNull : fn(p, &out[p]);
    if (slot == Slot::kValue) continue;
    if (slot == Slot::kFail) {
      Fail(p, ScalarAt(n, a, b, p).status());
      break;
    }
    if (nulls.empty()) nulls.assign(out.size(), 0);
    nulls[p] = 1;
  }
  return Fresh(std::move(out), std::move(nulls));
}

ColumnEvaluator::ColumnEvaluator(const Expr& expr,
                                 const std::vector<std::string>& columns) {
  Compile(expr, columns);
}

int ColumnEvaluator::Compile(const Expr& e,
                             const std::vector<std::string>& columns) {
  Node n;
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      n.op = Node::Op::kLiteral;
      if (!e.literal().is_null()) {
        n.literal = std::make_shared<const ValueSegment>(
            ValueSegment::FromValues({e.literal()}));
      }
      break;
    case Expr::Kind::kColumn: {
      n.op = Node::Op::kColumn;
      n.text = e.column();
      auto it = std::find(columns.begin(), columns.end(), e.column());
      if (it != columns.end()) {
        n.column = static_cast<int>(it - columns.begin());
      }
      break;
    }
    case Expr::Kind::kUnary:
      n.op = e.op() == "-"     ? Node::Op::kNeg
             : e.op() == "NOT" ? Node::Op::kNot
                               : Node::Op::kOther;
      n.text = e.op();
      n.lhs = Compile(*e.args()[0], columns);
      break;
    case Expr::Kind::kBinary: {
      static const std::pair<const char*, Node::Op> kOps[] = {
          {"AND", Node::Op::kAnd}, {"OR", Node::Op::kOr},
          {"+", Node::Op::kAdd},   {"-", Node::Op::kSub},
          {"*", Node::Op::kMul},   {"/", Node::Op::kDiv},
          {"=", Node::Op::kEq},    {"<>", Node::Op::kNe},
          {"<", Node::Op::kLt},    {"<=", Node::Op::kLe},
          {">", Node::Op::kGt},    {">=", Node::Op::kGe}};
      n.op = Node::Op::kOther;
      for (const auto& [text, op] : kOps) {
        if (e.op() == text) n.op = op;
      }
      n.text = e.op();
      n.lhs = Compile(*e.args()[0], columns);
      n.rhs = Compile(*e.args()[1], columns);
      break;
    }
  }
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

Result<Chunk::SegmentPtr> ColumnEvaluator::Evaluate(const Chunk& chunk) {
  std::vector<uint32_t> rows = LiveRows(chunk);
  Run run(nodes_, chunk);
  const Col c = run.Compute(static_cast<int>(nodes_.size()) - 1, &rows);
  ExprRowsCounter(run.scalar())
      .Increment(static_cast<int64_t>(chunk.num_rows()));
  if (run.failed()) return run.status();
  if (c.seg != nullptr && c.step == 1) return c.seg;
  // A literal, or NULL throughout: one value in every slot.
  return std::make_shared<const ValueSegment>(ValueSegment::FromValues(
      std::vector<Value>(chunk.capacity(), ValueAt(c, 0))));
}

Result<std::vector<uint32_t>> ColumnEvaluator::Filter(const Chunk& chunk) {
  std::vector<uint32_t> rows = LiveRows(chunk);
  Run run(nodes_, chunk);
  const Col c = run.Compute(static_cast<int>(nodes_.size()) - 1, &rows);
  std::vector<uint8_t> truth(chunk.capacity());
  if (!run.failed()) run.Truth(c, rows, &truth);
  ExprRowsCounter(run.scalar())
      .Increment(static_cast<int64_t>(chunk.num_rows()));
  if (run.failed()) return run.status();
  std::vector<uint32_t> sel;
  sel.reserve(rows.size());
  for (uint32_t p : rows) {
    if (truth[p] != 0) sel.push_back(p);
  }
  return sel;
}

}  // namespace quarry::etl
