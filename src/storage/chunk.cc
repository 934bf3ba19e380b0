#include "storage/chunk.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace quarry::storage {

namespace {

/// Rep for one value; never called on NULL.
ValueSegment::Rep ValueRep(const Value& v) {
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
    Rep r = ValueRep(v);
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

template <typename T>
ValueSegment ValueSegment::FromTyped(std::vector<T> payload,
                                     std::vector<uint8_t> nulls) {
  ValueSegment seg;
  seg.size_ = payload.size();
  seg.nulls_ = std::move(nulls);
  if constexpr (std::is_same_v<T, uint8_t>) {
    seg.rep_ = Rep::kBool;
    seg.bools_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    seg.rep_ = Rep::kInt64;
    seg.ints_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, double>) {
    seg.rep_ = Rep::kDouble;
    seg.doubles_ = std::move(payload);
  } else if constexpr (std::is_same_v<T, std::string>) {
    seg.rep_ = Rep::kString;
    seg.strings_ = std::move(payload);
  } else {
    static_assert(std::is_same_v<T, int32_t>);
    seg.rep_ = Rep::kDate;
    seg.dates_ = std::move(payload);
  }
  return seg;
}

template ValueSegment ValueSegment::FromTyped(std::vector<uint8_t>,
                                              std::vector<uint8_t>);
template ValueSegment ValueSegment::FromTyped(std::vector<int64_t>,
                                              std::vector<uint8_t>);
template ValueSegment ValueSegment::FromTyped(std::vector<double>,
                                              std::vector<uint8_t>);
template ValueSegment ValueSegment::FromTyped(std::vector<std::string>,
                                              std::vector<uint8_t>);
template ValueSegment ValueSegment::FromTyped(std::vector<int32_t>,
                                              std::vector<uint8_t>);

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

size_t ValueSegment::MemoryBytes() const {
  static const size_t kInline = std::string().capacity();
  size_t bytes = nulls_.capacity() + bools_.capacity() +
                 ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 strings_.capacity() * sizeof(std::string) +
                 dates_.capacity() * sizeof(int32_t) +
                 values_.capacity() * sizeof(Value);
  for (const std::string& s : strings_) {
    if (s.capacity() > kInline) bytes += s.capacity() + 1;
  }
  for (const Value& v : values_) {
    if (v.is_string() && v.as_string().capacity() > kInline) {
      bytes += v.as_string().capacity() + 1;
    }
  }
  return bytes;
}

ValueSegment::Rep RepOf(DataType type) {
  switch (type) {
    case DataType::kBool:
      return ValueSegment::Rep::kBool;
    case DataType::kInt64:
      return ValueSegment::Rep::kInt64;
    case DataType::kDouble:
      return ValueSegment::Rep::kDouble;
    case DataType::kString:
      return ValueSegment::Rep::kString;
    case DataType::kDate:
      return ValueSegment::Rep::kDate;
  }
  return ValueSegment::Rep::kInt64;
}

namespace {

/// The payload slot type `T` holds for non-NULL `value`.
template <typename T>
T PayloadOf(const Value& value) {
  if constexpr (std::is_same_v<T, uint8_t>) {
    return value.as_bool() ? 1 : 0;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return value.as_int();
  } else if constexpr (std::is_same_v<T, double>) {
    return value.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return value.as_string();
  } else {
    return value.as_date_days();
  }
}

/// `source`'s payload vector of element type `T`.
template <typename T>
const std::vector<T>& PayloadVector(const ValueSegment& source) {
  if constexpr (std::is_same_v<T, uint8_t>) {
    return source.bools();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return source.ints();
  } else if constexpr (std::is_same_v<T, double>) {
    return source.doubles();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return source.strings();
  } else {
    return source.dates();
  }
}

/// Calls fn(payload) with `source`'s payload vector when its element type
/// is `T`, or with its ints when `T` is double and `source` is kInt64: the
/// two representations a builder of element type `T` reads from.
template <typename T, typename Fn>
void WithSourcePayload(const ValueSegment& source, Fn fn) {
  if constexpr (std::is_same_v<T, double>) {
    if (source.rep() == ValueSegment::Rep::kInt64) {
      fn(source.ints());
      return;
    }
  }
  fn(PayloadVector<T>(source));
}

template <typename V>
using ElementOf = typename std::decay_t<V>::value_type;

}  // namespace

template <typename Fn>
void ColumnBuilder::VisitPayload(Fn fn) {
  using Rep = ValueSegment::Rep;
  switch (seg_.rep_) {
    case Rep::kBool:
      fn(seg_.bools_);
      break;
    case Rep::kInt64:
      fn(seg_.ints_);
      break;
    case Rep::kDouble:
      fn(seg_.doubles_);
      break;
    case Rep::kString:
      fn(seg_.strings_);
      break;
    case Rep::kDate:
      fn(seg_.dates_);
      break;
    case Rep::kMixed:
      break;  // Never a builder's representation.
  }
}

ColumnBuilder::ColumnBuilder(DataType type) { seg_.rep_ = RepOf(type); }

ColumnBuilder::ColumnBuilder(const ValueSegment& segment) : seg_(segment) {}

void ColumnBuilder::MarkNull(size_t i, bool null) {
  if (seg_.nulls_.empty()) {
    if (!null) return;
    seg_.nulls_.assign(seg_.size_, 0);
  }
  seg_.nulls_[i] = null ? 1 : 0;
}

void ColumnBuilder::AppendNull() {
  VisitPayload([](auto& payload) { payload.emplace_back(); });
  if (seg_.nulls_.empty()) seg_.nulls_.assign(seg_.size_, 0);
  seg_.nulls_.push_back(1);
  ++seg_.size_;
}

void ColumnBuilder::Append(const Value& value) {
  VisitPayload([&value](auto& payload) {
    payload.push_back(PayloadOf<ElementOf<decltype(payload)>>(value));
  });
  if (!seg_.nulls_.empty()) seg_.nulls_.push_back(0);
  ++seg_.size_;
}

void ColumnBuilder::AppendRows(const ValueSegment& source,
                               const uint32_t* rows, size_t n) {
  VisitPayload([&](auto& payload) {
    using T = ElementOf<decltype(payload)>;
    WithSourcePayload<T>(source, [&](const auto& from) {
      for (size_t i = 0; i < n; ++i) {
        payload.push_back(static_cast<T>(from[rows[i]]));
      }
    });
  });
  const size_t first = seg_.size_;
  seg_.size_ += n;
  if (!seg_.nulls_.empty()) seg_.nulls_.resize(seg_.size_, 0);
  if (source.has_nulls()) {
    for (size_t i = 0; i < n; ++i) {
      if (source.nulls()[rows[i]] != 0) MarkNull(first + i, true);
    }
  }
}

void ColumnBuilder::Set(size_t i, const Value& value) {
  if (value.is_null()) {
    MarkNull(i, true);
    return;
  }
  VisitPayload([&](auto& payload) {
    payload[i] = PayloadOf<ElementOf<decltype(payload)>>(value);
  });
  MarkNull(i, false);
}

void ColumnBuilder::SetFrom(size_t i, const ValueSegment& source,
                            size_t row) {
  VisitPayload([&](auto& payload) {
    using T = ElementOf<decltype(payload)>;
    WithSourcePayload<T>(source, [&](const auto& from) {
      payload[i] = static_cast<T>(from[row]);
    });
  });
  MarkNull(i, false);
}

ValueSegment ColumnBuilder::Finish() {
  ValueSegment out = std::move(seg_);
  seg_ = ValueSegment();
  seg_.rep_ = out.rep_;
  return out;
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
