#ifndef QUARRY_ETL_EXPR_H_
#define QUARRY_ETL_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace quarry::etl {

/// \brief Expression AST used by Selection predicates, Function (derived
/// column) operators, measure definitions and slicer conditions.
///
/// Grammar (precedence low→high):
///   or:      and ( OR and )*
///   and:     not ( AND not )*
///   not:     NOT not | cmp
///   cmp:     add ( (= | <> | != | < | <= | > | >=) add )?
///   add:     mul ( (+ | -) mul )*
///   mul:     unary ( (* | /) unary )*
///   unary:   - unary | primary
///   primary: number | 'string' | DATE 'Y-M-D' | TRUE | FALSE | NULL
///            | identifier | ( or )
///
/// Identifiers are column names and may contain letters, digits, '_' and
/// '.'. Evaluation uses SQL-ish semantics: any arithmetic or comparison
/// with NULL yields NULL; AND/OR treat NULL as false (two-valued logic is
/// enough for ETL predicates and keeps flows deterministic) and evaluate
/// their right operand only where the left one leaves the answer open.
/// INT with INT stays INT for + - * and unary -, and a result outside
/// int64 fails with InvalidArgument ("integer overflow: ...") instead of
/// wrapping; / always yields DOUBLE.
///
/// This class is the syntax tree only. The chunk kernels evaluate it one
/// node at a time over a whole chunk (ColumnEvaluator,
/// etl/exec/column_eval.h); the scalar primitives below state the value
/// rules once, for that evaluator and for the row-at-a-time reference
/// executor the tests compare it with (tests/etl_reference.h).
class Expr {
 public:
  enum class Kind { kLiteral, kColumn, kUnary, kBinary };

  using Ptr = std::shared_ptr<const Expr>;

  static Ptr Literal(storage::Value value);
  static Ptr Column(std::string name);
  static Ptr Unary(std::string op, Ptr operand);
  static Ptr Binary(std::string op, Ptr lhs, Ptr rhs);

  Kind kind() const { return kind_; }
  const storage::Value& literal() const { return literal_; }
  const std::string& column() const { return column_; }
  const std::string& op() const { return op_; }
  const std::vector<Ptr>& args() const { return args_; }

  /// Canonical text form; reparsing it yields an equivalent expression.
  std::string ToString() const;

  /// All column names referenced anywhere in the expression.
  std::set<std::string> ReferencedColumns() const;

  /// Structural equality of canonical forms.
  bool EqualTo(const Expr& other) const {
    return ToString() == other.ToString();
  }

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteral;
  storage::Value literal_;
  std::string column_;
  std::string op_;
  std::vector<Ptr> args_;
};

/// Parses the grammar above.
Result<Expr::Ptr> ParseExpr(std::string_view text);

/// Scalar evaluation primitives: one value at a time.

/// Two-valued truthiness used by AND/OR/NOT and Selection predicates:
/// only a non-NULL boolean TRUE counts.
bool ExprTruthy(const storage::Value& v);

/// Unary - (NULL stays NULL; negating INT64_MIN overflows) and NOT.
Result<storage::Value> EvalUnary(const std::string& op,
                                 const storage::Value& v);

/// +, -, *, / with the executor's SQL-ish semantics: NULL propagates,
/// int⊕int stays int (except /, which always yields DOUBLE and NULLs out a
/// zero divisor) and fails on int64 overflow, mixed numerics widen to
/// double, string + string concatenates.
Result<storage::Value> EvalArithmetic(const std::string& op,
                                      const storage::Value& a,
                                      const storage::Value& b);

/// =, <>, <, <=, >, >= via Value::Compare; NULL on either side yields NULL.
Result<storage::Value> EvalComparison(const std::string& op,
                                      const storage::Value& a,
                                      const storage::Value& b);

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXPR_H_
