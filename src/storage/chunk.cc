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

namespace {

/// Copies the typed payload cells of `rows` into `out` (one per row); NULL
/// cells stay zero and are flagged in `nulls`.
template <typename T, typename Payload>
void GatherTyped(const std::vector<ChunkRow>& rows, size_t column,
                 Payload payload, std::vector<uint8_t>* nulls,
                 std::vector<T>* out) {
  out->reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ChunkRow& row = rows[i];
    const ValueSegment* seg =
        row.chunk == nullptr ? nullptr : &row.chunk->segment(column);
    if (seg == nullptr || seg->IsNull(row.phys)) {
      (*nulls)[i] = 1;
      out->emplace_back();
      continue;
    }
    out->push_back(payload(*seg)[row.phys]);
  }
}

}  // namespace

ValueSegment GatherColumn(const std::vector<ChunkRow>& rows, size_t column) {
  using Rep = ValueSegment::Rep;
  // Pass 1: the one typed rep every non-NULL cell comes from, if any.
  bool any_value = false;
  bool any_null = false;
  Rep rep = Rep::kInt64;  // All-NULL default, as in FromValues.
  for (const ChunkRow& row : rows) {
    const ValueSegment* seg =
        row.chunk == nullptr ? nullptr : &row.chunk->segment(column);
    if (seg == nullptr || seg->IsNull(row.phys)) {
      any_null = true;
      continue;
    }
    if (seg->rep() == Rep::kMixed || (any_value && seg->rep() != rep)) {
      // Types mix: FromValues picks the representation.
      std::vector<Value> values;
      values.reserve(rows.size());
      for (const ChunkRow& r : rows) {
        values.push_back(r.chunk == nullptr
                             ? Value::Null()
                             : r.chunk->segment(column).At(r.phys));
      }
      return ValueSegment::FromValues(std::move(values));
    }
    rep = seg->rep();
    any_value = true;
  }

  // Pass 2: typed payload plus a null mask (allocated only when needed).
  ValueSegment out;
  out.rep_ = rep;
  out.size_ = rows.size();
  if (any_null) out.nulls_.assign(rows.size(), 0);
  switch (rep) {
    case Rep::kBool:
      GatherTyped(rows, column, [](const ValueSegment& s) -> auto& {
        return s.bools();
      }, &out.nulls_, &out.bools_);
      break;
    case Rep::kInt64:
      GatherTyped(rows, column, [](const ValueSegment& s) -> auto& {
        return s.ints();
      }, &out.nulls_, &out.ints_);
      break;
    case Rep::kDouble:
      GatherTyped(rows, column, [](const ValueSegment& s) -> auto& {
        return s.doubles();
      }, &out.nulls_, &out.doubles_);
      break;
    case Rep::kString:
      GatherTyped(rows, column, [](const ValueSegment& s) -> auto& {
        return s.strings();
      }, &out.nulls_, &out.strings_);
      break;
    case Rep::kDate:
      GatherTyped(rows, column, [](const ValueSegment& s) -> auto& {
        return s.dates();
      }, &out.nulls_, &out.dates_);
      break;
    case Rep::kMixed:
      break;  // Handled in pass 1.
  }
  return out;
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
