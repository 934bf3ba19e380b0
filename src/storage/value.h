#ifndef QUARRY_STORAGE_VALUE_H_
#define QUARRY_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"

namespace quarry::storage {

/// Column data types supported by the embedded engine. The set mirrors what
/// Quarry's Design Deployer emits for PostgreSQL star schemas (Fig. 3 of the
/// paper): BIGINT surrogate keys, DOUBLE PRECISION measures, VARCHAR level
/// attributes, DATE dimension attributes.
enum class DataType {
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,  ///< Stored as days since 1970-01-01 (proleptic Gregorian).
};

const char* DataTypeToString(DataType type);

/// Days since epoch for a calendar date.
int32_t DaysFromCivil(int year, int month, int day);

/// Inverse of DaysFromCivil.
void CivilFromDays(int32_t days, int* year, int* month, int* day);

/// \brief A dynamically typed cell value (SQL semantics: nullable).
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Data(b)); }
  static Value Int(int64_t i) { return Value(Data(i)); }
  static Value Double(double d) { return Value(Data(d)); }
  static Value String(std::string s) { return Value(Data(std::move(s))); }
  /// A date given as days since epoch.
  static Value Date(int32_t days) { return Value(Data(DateRep{days})); }
  static Value DateYmd(int year, int month, int day) {
    return Date(DaysFromCivil(year, month, day));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_date() const { return std::holds_alternative<DateRep>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(data_))
                    : std::get<double>(data_);
  }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  int32_t as_date_days() const { return std::get<DateRep>(data_).days; }

  /// The value's runtime type; calling on NULL is a logic error guarded by
  /// callers (SQL NULL is typeless).
  Result<DataType> type() const;

  /// SQL-style equality: NULL equals nothing (including NULL). For hashing
  /// and group-by semantics use SameAs, which treats NULLs as identical.
  bool SqlEquals(const Value& other) const;

  /// Structural identity: NULL == NULL, otherwise Compare() == 0. Looser
  /// than the key rule for big ints: Int(2^53 + 1) is SameAs Double(2^53),
  /// which it rounds to. Hash keys follow storage::RowKey (storage/key.h).
  bool SameAs(const Value& other) const;

  /// Three-way order: NULLs first, then by numeric/string/date comparison.
  /// Numeric types compare cross-type (1 == 1.0). Returns -1/0/+1.
  int Compare(const Value& other) const;

  /// Stable hash under the key rule: values that are equal as hash keys
  /// hash equally, where an int equals a double only when the double holds
  /// exactly that integer (1 = 1.0; 0 = -0.0). SameAs pairs outside that
  /// rule (Int(2^53 + 1) vs Double(2^53)) hash differently. Feeds
  /// Table::Fingerprint, so its values must not change.
  size_t Hash() const;

  /// Hash() of a value held as a typed payload, without building it:
  /// HashInt(i) == Int(i).Hash(), and likewise for the other types.
  static size_t HashNull() { return 0x9E3779B9u; }
  static size_t HashBool(bool b) { return b ? 0x5bd1e995u : 0x27d4eb2fu; }
  static size_t HashInt(int64_t i);
  static size_t HashDouble(double d);
  static size_t HashString(const std::string& s);
  static size_t HashDate(int32_t days);

  /// Display form: "NULL", "42", "3.14", "abc", "1995-03-15", "true".
  std::string ToString() const;

  /// Parses `text` as the given type ("" and "NULL" are rejected; callers
  /// decide how to spell NULL, e.g. the CSV reader uses empty fields).
  static Result<Value> Parse(const std::string& text, DataType type);

  /// Coerces this value to `type` (int<->double, string->anything parseable).
  /// NULL coerces to NULL. DOUBLE -> INT truncates toward zero, and fails
  /// with InvalidArgument for NaN, infinities and values outside int64.
  Result<Value> CastTo(DataType type) const;

  bool operator==(const Value& other) const { return SameAs(other); }

 private:
  struct DateRep {
    int32_t days;
    bool operator==(const DateRep&) const = default;
  };
  using Data =
      std::variant<std::monostate, bool, int64_t, double, std::string, DateRep>;

  explicit Value(Data data) : data_(std::move(data)) {}

  Data data_;
};

/// A tuple of cell values.
using Row = std::vector<Value>;

/// Hash of a row from its Value::Hash()es (same rule); feeds
/// Table::Fingerprint, so its values must not change.
size_t HashRow(const Row& row);

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_VALUE_H_
