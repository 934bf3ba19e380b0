#ifndef QUARRY_ETL_EXEC_COLUMN_EVAL_H_
#define QUARRY_ETL_EXEC_COLUMN_EVAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "etl/expr.h"
#include "storage/chunk.h"

namespace quarry::etl {

/// \brief The chunk kernels' expression evaluator (DESIGN.md §8):
/// Selection predicates and Function expressions, one node at a time over
/// all live rows of a chunk.
///
/// Each node's value is a typed column: a typed payload plus a null mask
/// (a storage::ValueSegment over the chunk's physical rows). A literal is a
/// one-slot constant and a column reference is its input segment itself,
/// so only operators produce new payloads. An operator runs one typed loop
/// when its operand representations have one (numbers, strings, dates,
/// booleans of one kind); otherwise — a kMixed operand, or a mix the value
/// rules answer with an error — it goes slot by slot through the scalar
/// primitives of etl/expr.h, which state the value rules once.
///
/// The results and errors are those of evaluating each live row in order:
/// AND and OR evaluate their right operand only on the rows the left one
/// leaves undecided, and a failing evaluation returns the status of the
/// first live row that fails, with that row's first failure in left-to-right
/// order. To get that, a row that fails leaves the rows of every later node
/// (and so does every row after it), and an unknown column fails only when
/// a row reaches it. tests/etl_reference.h walks rows one by one as the
/// oracle the differential tests compare this with.
class ColumnEvaluator {
 public:
  /// Binds `expr` to a relation's column names; a name resolves to its
  /// first occurrence.
  ColumnEvaluator(const Expr& expr, const std::vector<std::string>& columns);

  /// The expression's value at each live row of `chunk`, as a segment of
  /// `chunk.capacity()` slots; slots outside the selection are
  /// unspecified. A bare column is the input segment itself.
  Result<storage::Chunk::SegmentPtr> Evaluate(const storage::Chunk& chunk);

  /// The live rows of `chunk`, as physical rows in order, where the
  /// expression is a non-NULL TRUE.
  Result<std::vector<uint32_t>> Filter(const storage::Chunk& chunk);

 private:
  /// One compiled expression node; children precede their parents.
  struct Node {
    enum class Op : uint8_t {
      kLiteral, kColumn, kNeg, kNot, kAnd, kOr,
      kAdd, kSub, kMul, kDiv, kEq, kNe, kLt, kLe, kGt, kGe,
      kOther,  ///< An operator no typed loop knows; the scalar path decides.
    };
    Op op = Op::kLiteral;
    /// The operator as the scalar primitives take it, or the column name.
    std::string text;
    int column = -1;  ///< kColumn: position in the relation; -1 if unknown.
    storage::Chunk::SegmentPtr literal;  ///< kLiteral; null for NULL.
    int lhs = -1;
    int rhs = -1;
  };
  /// One evaluation over one chunk (column_eval.cc).
  class Run;

  int Compile(const Expr& e, const std::vector<std::string>& columns);

  std::vector<Node> nodes_;  ///< The root is last.
};

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXEC_COLUMN_EVAL_H_
