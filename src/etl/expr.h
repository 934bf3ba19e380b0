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

/// \brief A row with named columns, as seen by expression evaluation.
///
/// Non-owning: both vectors must outlive the view. Column resolution is
/// linear, which is fine for ETL tuples (tens of columns).
struct RowView {
  const std::vector<std::string>* names = nullptr;
  const storage::Row* row = nullptr;

  /// Value of the column, or an error when the name is unknown.
  Result<storage::Value> Get(const std::string& name) const;
};

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
/// enough for ETL predicates and keeps flows deterministic).
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

  /// Evaluates against a row.
  Result<storage::Value> Eval(const RowView& row) const;

  /// Evaluates with `column(name)` -> Result<storage::Value> resolving
  /// column references. The one tree walk behind Eval(RowView) and the
  /// chunk kernels' evaluator (etl/exec/vectorized.cc).
  template <typename ColumnFn>
  Result<storage::Value> EvalWith(const ColumnFn& column) const;

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

/// Scalar evaluation primitives behind Expr::EvalWith.

/// Two-valued truthiness used by AND/OR/NOT and Selection predicates:
/// only a non-NULL boolean TRUE counts.
bool ExprTruthy(const storage::Value& v);

/// Unary - (NULL stays NULL) and NOT.
Result<storage::Value> EvalUnary(const std::string& op,
                                 const storage::Value& v);

/// +, -, *, / with the executor's SQL-ish semantics: NULL propagates,
/// int⊕int stays int (except /, which always yields DOUBLE and NULLs out a
/// zero divisor), mixed numerics widen to double, string + string
/// concatenates.
Result<storage::Value> EvalArithmetic(const std::string& op,
                                      const storage::Value& a,
                                      const storage::Value& b);

/// =, <>, <, <=, >, >= via Value::Compare; NULL on either side yields NULL.
Result<storage::Value> EvalComparison(const std::string& op,
                                      const storage::Value& a,
                                      const storage::Value& b);

template <typename ColumnFn>
Result<storage::Value> Expr::EvalWith(const ColumnFn& column) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kColumn:
      return column(column_);
    case Kind::kUnary: {
      QUARRY_ASSIGN_OR_RETURN(storage::Value v, args_[0]->EvalWith(column));
      return EvalUnary(op_, v);
    }
    case Kind::kBinary: {
      QUARRY_ASSIGN_OR_RETURN(storage::Value a, args_[0]->EvalWith(column));
      // AND/OR short-circuit: the right operand is never evaluated (so an
      // unknown column there goes unnoticed) once the left one decides.
      if (op_ == "AND" && !ExprTruthy(a)) return storage::Value::Bool(false);
      if (op_ == "OR" && ExprTruthy(a)) return storage::Value::Bool(true);
      QUARRY_ASSIGN_OR_RETURN(storage::Value b, args_[1]->EvalWith(column));
      if (op_ == "AND" || op_ == "OR") {
        return storage::Value::Bool(ExprTruthy(b));
      }
      if (op_ == "+" || op_ == "-" || op_ == "*" || op_ == "/") {
        return EvalArithmetic(op_, a, b);
      }
      return EvalComparison(op_, a, b);
    }
  }
  return Status::Internal("corrupt expression");
}

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXPR_H_
