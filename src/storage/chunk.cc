#include "storage/chunk.h"

#include <algorithm>
#include <utility>

namespace quarry::storage {

namespace {

/// Rep for one value; never called on NULL.
ValueSegment::Rep RepOf(const Value& v) {
  if (v.is_bool()) return ValueSegment::Rep::kBool;
  if (v.is_int()) return ValueSegment::Rep::kInt64;
  if (v.is_double()) return ValueSegment::Rep::kDouble;
  if (v.is_string()) return ValueSegment::Rep::kString;
  return ValueSegment::Rep::kDate;
}

}  // namespace

ValueSegment ValueSegment::FromValues(std::vector<Value> values) {
  ValueSegment seg;
  seg.size_ = values.size();

  // Pass 1: pick the representation — the uniform non-NULL type, or kMixed.
  bool any_value = false;
  bool mixed = false;
  Rep rep = Rep::kInt64;  // All-NULL default; the mask hides it anyway.
  for (const Value& v : values) {
    if (v.is_null()) continue;
    Rep r = RepOf(v);
    if (!any_value) {
      rep = r;
      any_value = true;
    } else if (r != rep) {
      mixed = true;
      break;
    }
  }
  if (mixed) {
    seg.rep_ = Rep::kMixed;
    seg.values_ = std::move(values);
    return seg;
  }
  seg.rep_ = rep;

  // Pass 2: typed payload plus a null mask (allocated only when needed).
  bool any_null = false;
  for (const Value& v : values) {
    if (v.is_null()) {
      any_null = true;
      break;
    }
  }
  if (any_null) seg.nulls_.assign(values.size(), 0);
  switch (rep) {
    case Rep::kBool:
      seg.bools_.resize(values.size(), 0);
      break;
    case Rep::kInt64:
      seg.ints_.resize(values.size(), 0);
      break;
    case Rep::kDouble:
      seg.doubles_.resize(values.size(), 0.0);
      break;
    case Rep::kString:
      seg.strings_.resize(values.size());
      break;
    case Rep::kDate:
      seg.dates_.resize(values.size(), 0);
      break;
    case Rep::kMixed:
      break;  // Unreachable.
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Value& v = values[i];
    if (v.is_null()) {
      seg.nulls_[i] = 1;
      continue;
    }
    switch (rep) {
      case Rep::kBool:
        seg.bools_[i] = v.as_bool() ? 1 : 0;
        break;
      case Rep::kInt64:
        seg.ints_[i] = v.as_int();
        break;
      case Rep::kDouble:
        seg.doubles_[i] = v.as_double();
        break;
      case Rep::kString:
        seg.strings_[i] = std::move(const_cast<std::string&>(v.as_string()));
        break;
      case Rep::kDate:
        seg.dates_[i] = v.as_date_days();
        break;
      case Rep::kMixed:
        break;  // Unreachable.
    }
  }
  return seg;
}

Value ValueSegment::At(size_t i) const {
  if (rep_ == Rep::kMixed) return values_[i];
  if (IsNull(i)) return Value::Null();
  switch (rep_) {
    case Rep::kBool:
      return Value::Bool(bools_[i] != 0);
    case Rep::kInt64:
      return Value::Int(ints_[i]);
    case Rep::kDouble:
      return Value::Double(doubles_[i]);
    case Rep::kString:
      return Value::String(strings_[i]);
    case Rep::kDate:
      return Value::Date(dates_[i]);
    case Rep::kMixed:
      break;  // Handled above.
  }
  return Value::Null();
}

ValueSegment ValueSegment::Gather(const std::vector<uint32_t>& positions) const {
  ValueSegment seg;
  seg.rep_ = rep_;
  seg.size_ = positions.size();
  if (rep_ == Rep::kMixed) {
    seg.values_.reserve(positions.size());
    for (uint32_t p : positions) seg.values_.push_back(values_[p]);
    return seg;
  }
  if (!nulls_.empty()) {
    seg.nulls_.reserve(positions.size());
    for (uint32_t p : positions) seg.nulls_.push_back(nulls_[p]);
  }
  switch (rep_) {
    case Rep::kBool:
      seg.bools_.reserve(positions.size());
      for (uint32_t p : positions) seg.bools_.push_back(bools_[p]);
      break;
    case Rep::kInt64:
      seg.ints_.reserve(positions.size());
      for (uint32_t p : positions) seg.ints_.push_back(ints_[p]);
      break;
    case Rep::kDouble:
      seg.doubles_.reserve(positions.size());
      for (uint32_t p : positions) seg.doubles_.push_back(doubles_[p]);
      break;
    case Rep::kString:
      seg.strings_.reserve(positions.size());
      for (uint32_t p : positions) seg.strings_.push_back(strings_[p]);
      break;
    case Rep::kDate:
      seg.dates_.reserve(positions.size());
      for (uint32_t p : positions) seg.dates_.push_back(dates_[p]);
      break;
    case Rep::kMixed:
      break;  // Handled above.
  }
  return seg;
}

void Chunk::AppendRowsTo(std::vector<Row>* out) const {
  const size_t n = num_rows();
  const size_t cols = num_columns();
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t phys = PhysicalRow(i);
    Row row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) row.push_back(segments_[c]->At(phys));
    out->push_back(std::move(row));
  }
}

Chunk MakeChunk(const std::vector<Row>& rows, size_t num_columns,
                size_t begin, size_t end) {
  // Copy row-major, then build each segment from a contiguous vector: one
  // pass over the rows instead of one strided pass per column.
  std::vector<std::vector<Value>> columns(num_columns);
  for (std::vector<Value>& column : columns) column.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < num_columns; ++c) columns[c].push_back(rows[r][c]);
  }
  std::vector<Chunk::SegmentPtr> segments;
  segments.reserve(num_columns);
  for (std::vector<Value>& column : columns) {
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(std::move(column))));
  }
  return Chunk(end - begin, std::move(segments));
}

std::vector<Chunk> ChunkRows(const std::vector<Row>& rows,
                             size_t num_columns, int64_t chunk_size) {
  const size_t step = static_cast<size_t>(std::max<int64_t>(1, chunk_size));
  std::vector<Chunk> chunks;
  chunks.reserve(rows.size() / step + 1);
  for (size_t begin = 0; begin < rows.size(); begin += step) {
    const size_t end = std::min(rows.size(), begin + step);
    chunks.push_back(MakeChunk(rows, num_columns, begin, end));
  }
  return chunks;
}

}  // namespace quarry::storage
