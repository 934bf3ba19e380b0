#include "storage/value.h"

#include <charconv>
#include <cstdio>
#include <functional>

#include "common/str_util.h"

namespace quarry::storage {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE PRECISION";
    case DataType::kString:
      return "VARCHAR";
    case DataType::kDate:
      return "DATE";
  }
  return "UNKNOWN";
}

// Howard Hinnant's days-from-civil algorithm.
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153 * (static_cast<unsigned>(m) + (m > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int32_t z, int* year, int* month, int* day) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  *year = y + (m <= 2);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

Result<DataType> Value::type() const {
  if (is_bool()) return DataType::kBool;
  if (is_int()) return DataType::kInt64;
  if (is_double()) return DataType::kDouble;
  if (is_string()) return DataType::kString;
  if (is_date()) return DataType::kDate;
  return Status::InvalidArgument("NULL has no type");
}

bool Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  return Compare(other) == 0;
}

bool Value::SameAs(const Value& other) const {
  if (is_null() && other.is_null()) return true;
  if (is_null() || other.is_null()) return false;
  return Compare(other) == 0;
}

namespace {

int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  if (v.is_numeric()) return 2;
  if (v.is_string()) return 3;
  return 4;  // date
}

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

}  // namespace

int Value::Compare(const Value& other) const {
  int ra = TypeRank(*this), rb = TypeRank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL in ordering
    case 1:
      return (as_bool() ? 1 : 0) - (other.as_bool() ? 1 : 0);
    case 2:
      if (is_int() && other.is_int()) {
        int64_t a = as_int(), b = other.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      return Sign(as_double() - other.as_double());
    case 3: {
      int cmp = as_string().compare(other.as_string());
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    default: {
      int32_t a = as_date_days(), b = other.as_date_days();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
}

size_t Value::HashInt(int64_t i) {
  // Hash ints through double so that 1 and 1.0 land in the same bucket.
  // Only an int the double holds exactly takes that path: the range check
  // comes first because converting 2^63 (what INT64_MAX and its
  // neighbours round to) back to int64_t is undefined.
  const double d = static_cast<double>(i);
  if (d < 0x1p63 && static_cast<int64_t>(d) == i) return HashDouble(d);
  return std::hash<int64_t>{}(i);
}

size_t Value::HashDouble(double d) { return std::hash<double>{}(d); }

size_t Value::HashString(const std::string& s) {
  return std::hash<std::string>{}(s);
}

size_t Value::HashDate(int32_t days) {
  return std::hash<int64_t>{}(days) * 0x100000001B3ull;
}

size_t Value::Hash() const {
  if (is_null()) return HashNull();
  if (is_bool()) return HashBool(as_bool());
  if (is_int()) return HashInt(as_int());
  if (is_double()) return HashDouble(as_double());
  if (is_string()) return HashString(as_string());
  return HashDate(as_date_days());
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", std::get<double>(data_));
    return buf;
  }
  if (is_string()) return as_string();
  int y, m, d;
  CivilFromDays(as_date_days(), &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

Result<Value> Value::Parse(const std::string& text, DataType type) {
  switch (type) {
    case DataType::kBool: {
      if (EqualsIgnoreCase(text, "true") || text == "1") return Bool(true);
      if (EqualsIgnoreCase(text, "false") || text == "0") return Bool(false);
      return Status::ParseError("not a boolean: '" + text + "'");
    }
    case DataType::kInt64: {
      int64_t i = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), i);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::ParseError("not an integer: '" + text + "'");
      }
      return Int(i);
    }
    case DataType::kDouble: {
      double d = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), d);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::ParseError("not a double: '" + text + "'");
      }
      return Double(d);
    }
    case DataType::kString:
      return String(text);
    case DataType::kDate: {
      int y, m, d;
      if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 ||
          m > 12 || d < 1 || d > 31) {
        return Status::ParseError("not a date (YYYY-MM-DD): '" + text + "'");
      }
      return DateYmd(y, m, d);
    }
  }
  return Status::Internal("unknown data type");
}

Result<Value> Value::CastTo(DataType type) const {
  if (is_null()) return Null();
  QUARRY_ASSIGN_OR_RETURN(DataType from, this->type());
  if (from == type) return *this;
  switch (type) {
    case DataType::kInt64:
      if (is_double()) {
        const double d = as_double();
        // The range check comes first: converting NaN, an infinity or a
        // double outside int64 to int64_t is undefined.
        if (d >= -0x1p63 && d < 0x1p63) return Int(static_cast<int64_t>(d));
        break;
      }
      if (is_bool()) return Int(as_bool() ? 1 : 0);
      if (is_string()) return Parse(as_string(), DataType::kInt64);
      break;
    case DataType::kDouble:
      if (is_int()) return Double(static_cast<double>(as_int()));
      if (is_bool()) return Double(as_bool() ? 1.0 : 0.0);
      if (is_string()) return Parse(as_string(), DataType::kDouble);
      break;
    case DataType::kString:
      return String(ToString());
    case DataType::kBool:
      if (is_int()) return Bool(as_int() != 0);
      if (is_string()) return Parse(as_string(), DataType::kBool);
      break;
    case DataType::kDate:
      if (is_string()) return Parse(as_string(), DataType::kDate);
      if (is_int()) return Date(static_cast<int32_t>(as_int()));
      break;
  }
  return Status::InvalidArgument("cannot cast " + ToString() + " to " +
                                 DataTypeToString(type));
}

size_t HashRow(const Row& row) {
  size_t h = 14695981039346656037ull;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace quarry::storage
