#include "etl/expr.h"

#include <cctype>

#include "common/str_util.h"

namespace quarry::etl {

using storage::DataType;
using storage::Value;

Expr::Ptr Expr::Literal(Value value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

Expr::Ptr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->column_ = std::move(name);
  return e;
}

Expr::Ptr Expr::Unary(std::string op, Ptr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kUnary;
  e->op_ = std::move(op);
  e->args_ = {std::move(operand)};
  return e;
}

Expr::Ptr Expr::Binary(std::string op, Ptr lhs, Ptr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBinary;
  e->op_ = std::move(op);
  e->args_ = {std::move(lhs), std::move(rhs)};
  return e;
}

bool ExprTruthy(const Value& v) {
  return !v.is_null() && v.is_bool() && v.as_bool();
}

Result<Value> EvalUnary(const std::string& op, const Value& v) {
  if (op == "-") {
    if (v.is_null()) return Value::Null();
    if (v.is_int()) {
      int64_t negated;
      if (__builtin_sub_overflow(int64_t{0}, v.as_int(), &negated)) {
        return Status::InvalidArgument("integer overflow: -(" + v.ToString() +
                                       ")");
      }
      return Value::Int(negated);
    }
    if (v.is_double()) return Value::Double(-v.as_double());
    return Status::InvalidArgument("negation of non-numeric value");
  }
  if (op == "NOT") return Value::Bool(!ExprTruthy(v));
  return Status::Internal("unknown unary op '" + op + "'");
}

Result<Value> EvalArithmetic(const std::string& op, const Value& a,
                             const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    if (op == "+" && a.is_string() && b.is_string()) {
      return Value::String(a.as_string() + b.as_string());
    }
    return Status::InvalidArgument("arithmetic on non-numeric values: " +
                                   a.ToString() + " " + op + " " +
                                   b.ToString());
  }
  if (op == "/") {
    double denom = b.as_double();
    if (denom == 0.0) return Value::Null();  // SQL raises; ETL nulls out.
    return Value::Double(a.as_double() / denom);
  }
  if (a.is_int() && b.is_int()) {
    int64_t x = a.as_int(), y = b.as_int(), r;
    bool overflow;
    if (op == "+") {
      overflow = __builtin_add_overflow(x, y, &r);
    } else if (op == "-") {
      overflow = __builtin_sub_overflow(x, y, &r);
    } else if (op == "*") {
      overflow = __builtin_mul_overflow(x, y, &r);
    } else {
      return Status::Internal("unknown arithmetic op '" + op + "'");
    }
    if (overflow) {
      return Status::InvalidArgument("integer overflow: " + a.ToString() +
                                     " " + op + " " + b.ToString());
    }
    return Value::Int(r);
  } else {
    double x = a.as_double(), y = b.as_double();
    if (op == "+") return Value::Double(x + y);
    if (op == "-") return Value::Double(x - y);
    if (op == "*") return Value::Double(x * y);
  }
  return Status::Internal("unknown arithmetic op '" + op + "'");
}

Result<Value> EvalComparison(const std::string& op, const Value& a,
                             const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  int cmp = a.Compare(b);
  if (op == "=") return Value::Bool(cmp == 0);
  if (op == "<>") return Value::Bool(cmp != 0);
  if (op == "<") return Value::Bool(cmp < 0);
  if (op == "<=") return Value::Bool(cmp <= 0);
  if (op == ">") return Value::Bool(cmp > 0);
  if (op == ">=") return Value::Bool(cmp >= 0);
  return Status::Internal("unknown comparison op '" + op + "'");
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      if (literal_.is_string()) {
        return "'" + ReplaceAll(literal_.as_string(), "'", "''") + "'";
      }
      if (literal_.is_date()) return "DATE '" + literal_.ToString() + "'";
      if (literal_.is_bool()) return literal_.as_bool() ? "TRUE" : "FALSE";
      return literal_.ToString();
    case Kind::kColumn:
      return column_;
    case Kind::kUnary:
      if (op_ == "NOT") return "NOT (" + args_[0]->ToString() + ")";
      return "(" + op_ + args_[0]->ToString() + ")";
    case Kind::kBinary:
      return "(" + args_[0]->ToString() + " " + op_ + " " +
             args_[1]->ToString() + ")";
  }
  return "?";
}

std::set<std::string> Expr::ReferencedColumns() const {
  std::set<std::string> out;
  if (kind_ == Kind::kColumn) out.insert(column_);
  for (const Ptr& arg : args_) {
    for (const std::string& c : arg->ReferencedColumns()) out.insert(c);
  }
  return out;
}

namespace {

class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  Result<Expr::Ptr> Parse() {
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr e, Or());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing input in expression at offset " +
                                std::to_string(pos_));
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool MatchChar(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekChar(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  // Matches a keyword (case-insensitive, word boundary).
  bool MatchKeyword(std::string_view kw) {
    SkipSpace();
    if (pos_ + kw.size() > text_.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) != kw[i]) {
        return false;
      }
    }
    size_t end = pos_ + kw.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_' || text_[end] == '.')) {
      return false;
    }
    pos_ = end;
    return true;
  }

  Result<Expr::Ptr> Or() {
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr lhs, And());
    while (MatchKeyword("OR")) {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, And());
      lhs = Expr::Binary("OR", lhs, rhs);
    }
    return lhs;
  }

  Result<Expr::Ptr> And() {
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr lhs, Not());
    while (MatchKeyword("AND")) {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, Not());
      lhs = Expr::Binary("AND", lhs, rhs);
    }
    return lhs;
  }

  Result<Expr::Ptr> Not() {
    if (MatchKeyword("NOT")) {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr operand, Not());
      return Expr::Unary("NOT", operand);
    }
    return Comparison();
  }

  Result<Expr::Ptr> Comparison() {
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr lhs, Additive());
    SkipSpace();
    std::string op;
    if (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '=') {
        op = "=";
        ++pos_;
      } else if (c == '<') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '>') {
          op = "<>";
          ++pos_;
        } else if (pos_ < text_.size() && text_[pos_] == '=') {
          op = "<=";
          ++pos_;
        } else {
          op = "<";
        }
      } else if (c == '>') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '=') {
          op = ">=";
          ++pos_;
        } else {
          op = ">";
        }
      } else if (c == '!' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '=') {
        op = "<>";
        pos_ += 2;
      }
    }
    if (op.empty()) return lhs;
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, Additive());
    return Expr::Binary(op, lhs, rhs);
  }

  Result<Expr::Ptr> Additive() {
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr lhs, Multiplicative());
    while (true) {
      if (MatchChar('+')) {
        QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, Multiplicative());
        lhs = Expr::Binary("+", lhs, rhs);
      } else if (PeekChar('-')) {
        ++pos_;
        QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, Multiplicative());
        lhs = Expr::Binary("-", lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  Result<Expr::Ptr> Multiplicative() {
    QUARRY_ASSIGN_OR_RETURN(Expr::Ptr lhs, UnaryExpr());
    while (true) {
      if (MatchChar('*')) {
        QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, UnaryExpr());
        lhs = Expr::Binary("*", lhs, rhs);
      } else if (MatchChar('/')) {
        QUARRY_ASSIGN_OR_RETURN(Expr::Ptr rhs, UnaryExpr());
        lhs = Expr::Binary("/", lhs, rhs);
      } else {
        return lhs;
      }
    }
  }

  Result<Expr::Ptr> UnaryExpr() {
    if (MatchChar('-')) {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr operand, UnaryExpr());
      return Expr::Unary("-", operand);
    }
    return Primary();
  }

  Result<Expr::Ptr> Primary() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::ParseError("unexpected end of expression");
    }
    if (MatchChar('(')) {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr inner, Or());
      if (!MatchChar(')')) {
        return Status::ParseError("expected ')' in expression");
      }
      return inner;
    }
    char c = text_[pos_];
    if (c == '\'') return StringLiteral(/*as_date=*/false);
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return NumberLiteral();
    }
    if (MatchKeyword("TRUE")) return Expr::Literal(Value::Bool(true));
    if (MatchKeyword("FALSE")) return Expr::Literal(Value::Bool(false));
    if (MatchKeyword("NULL")) return Expr::Literal(Value::Null());
    if (MatchKeyword("DATE")) return StringLiteral(/*as_date=*/true);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '.')) {
        ++pos_;
      }
      return Expr::Column(std::string(text_.substr(start, pos_ - start)));
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' in expression");
  }

  Result<Expr::Ptr> StringLiteral(bool as_date) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '\'') {
      return Status::ParseError("expected string literal");
    }
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Status::ParseError("unterminated string literal");
      }
      char c = text_[pos_++];
      if (c == '\'') {
        if (pos_ < text_.size() && text_[pos_] == '\'') {
          out.push_back('\'');
          ++pos_;
          continue;
        }
        break;
      }
      out.push_back(c);
    }
    if (as_date) {
      QUARRY_ASSIGN_OR_RETURN(Value v, Value::Parse(out, DataType::kDate));
      return Expr::Literal(std::move(v));
    }
    return Expr::Literal(Value::String(std::move(out)));
  }

  Result<Expr::Ptr> NumberLiteral() {
    size_t start = pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_double = true;
        ++pos_;
        if ((c == 'e' || c == 'E') && pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    QUARRY_ASSIGN_OR_RETURN(
        Value v, Value::Parse(token, is_double ? DataType::kDouble
                                               : DataType::kInt64));
    return Expr::Literal(std::move(v));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Expr::Ptr> ParseExpr(std::string_view text) {
  ExprParser parser(text);
  return parser.Parse();
}

}  // namespace quarry::etl
