#ifndef QUARRY_ETL_EXEC_KERNEL_UTIL_H_
#define QUARRY_ETL_EXEC_KERNEL_UTIL_H_

// Internal helpers of the chunk kernels (vectorized.cc), shared with the
// row-at-a-time reference executor the tests compare them against
// (tests/etl_reference.h): parameter parsing, column resolution and the
// aggregation accumulate/finalize logic, so SUM's int/double widening and
// NULL handling are stated once. Key hashing is not here: the kernels key
// their hash tables with storage::RowKey (storage/key.h), and the
// reference keeps its own Row-keyed tables beside it.

#include <algorithm>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/str_util.h"
#include "etl/flow.h"
#include "storage/value.h"

namespace quarry::etl::kernel {

inline std::vector<std::string> SplitNonEmpty(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& part : Split(text, ',')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

inline Result<std::vector<size_t>> ColumnPositions(
    const std::vector<std::string>& columns,
    const std::vector<std::string>& wanted, const std::string& node_id) {
  std::vector<size_t> out;
  out.reserve(wanted.size());
  for (const std::string& name : wanted) {
    auto it = std::find(columns.begin(), columns.end(), name);
    if (it == columns.end()) {
      return Status::ExecutionError("node '" + node_id +
                                    "': unknown column '" + name + "'");
    }
    out.push_back(static_cast<size_t>(it - columns.begin()));
  }
  return out;
}

inline std::string Param(const Node& node, const std::string& key) {
  auto it = node.params.find(key);
  return it == node.params.end() ? "" : it->second;
}

/// Running state of one aggregate.
struct AggState {
  double sum = 0;
  int64_t int_sum = 0;
  bool all_int = true;
  bool any = false;
  int64_t count = 0;
  storage::Value min, max;
};

/// Folds one COUNT(*) observation.
inline void AccumulateAggStar(AggState* st) {
  ++st->count;
  st->any = true;
}

/// Folds one column value; NULLs are skipped per SQL aggregate semantics.
/// The INT sum stops at the first input that is not INT or would take it
/// outside int64; SUM then finishes as the DOUBLE sum.
inline void AccumulateAgg(AggState* st, const storage::Value& v) {
  if (v.is_null()) return;
  ++st->count;
  if (v.is_numeric()) {
    st->sum += v.as_double();
    if (!v.is_int() ||
        (st->all_int &&
         __builtin_add_overflow(st->int_sum, v.as_int(), &st->int_sum))) {
      st->all_int = false;
    }
  }
  if (!st->any || v.Compare(st->min) < 0) st->min = v;
  if (!st->any || v.Compare(st->max) > 0) st->max = v;
  st->any = true;
}

/// The aggregate's output value: COUNT of an empty group is 0, every other
/// function NULLs out; SUM stays INT while every input was INT and the
/// running sum fits in int64.
inline storage::Value FinalizeAgg(const std::string& function,
                                  const AggState& st) {
  using storage::Value;
  if (function == "COUNT") return Value::Int(st.count);
  if (!st.any) return Value::Null();
  if (function == "SUM") {
    return st.all_int ? Value::Int(st.int_sum) : Value::Double(st.sum);
  }
  if (function == "AVG") {
    return Value::Double(st.sum / static_cast<double>(st.count));
  }
  if (function == "MIN") return st.min;
  return st.max;
}

}  // namespace quarry::etl::kernel

#endif  // QUARRY_ETL_EXEC_KERNEL_UTIL_H_
