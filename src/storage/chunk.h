#ifndef QUARRY_STORAGE_CHUNK_H_
#define QUARRY_STORAGE_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace quarry::storage {

struct ChunkRow;

/// \brief A typed, immutable column slice: the unit of chunk execution
/// (DESIGN.md §8).
///
/// A segment stores one column's values for a contiguous run of rows. When
/// every non-NULL value shares one runtime type the payload is a plain
/// typed vector (tight loops, no variant dispatch) plus an optional null
/// mask; columns that genuinely mix types — e.g. a SUM output whose groups
/// split between INT and DOUBLE — fall back to a `std::vector<Value>`
/// (Rep::kMixed). Either way `At(i)` reconstructs the original Value
/// exactly, including NULLs, so chunked execution produces the same tables
/// as the row-at-a-time reference executor (the differential harness
/// depends on this round-trip).
class ValueSegment {
 public:
  enum class Rep { kBool, kInt64, kDouble, kString, kDate, kMixed };

  ValueSegment() = default;

  /// Segment over a freshly computed value vector (takes ownership).
  static ValueSegment FromValues(std::vector<Value> values);

  /// Segment over a typed payload, one slot per row (`T` is uint8_t for
  /// kBool, int64_t, double, std::string or int32_t for kDate), and a null
  /// mask that is empty (no NULLs) or holds one flag per row. The payload
  /// of a NULL slot is never read.
  template <typename T>
  static ValueSegment FromTyped(std::vector<T> payload,
                                std::vector<uint8_t> nulls);

  size_t size() const { return size_; }
  Rep rep() const { return rep_; }
  /// True when the typed payload carries a null mask (never for kMixed,
  /// whose Values hold their own NULLs).
  bool has_nulls() const { return !nulls_.empty(); }
  /// True when physical row `i` is NULL, whatever the representation.
  bool IsNull(size_t i) const {
    return rep_ == Rep::kMixed ? values_[i].is_null()
                               : !nulls_.empty() && nulls_[i] != 0;
  }

  /// Exact reconstruction of the value at physical row `i`.
  Value At(size_t i) const;

  /// The null mask of a typed payload: empty when the segment has no
  /// NULLs, else one flag per row.
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Typed payloads; valid only for the matching rep. NULL slots hold
  /// zero values — readers must consult IsNull first.
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<int32_t>& dates() const { return dates_; }
  /// Rep::kMixed payload.
  const std::vector<Value>& values() const { return values_; }

 private:
  friend ValueSegment GatherColumn(const std::vector<ChunkRow>& rows,
                                   size_t column);

  Rep rep_ = Rep::kInt64;  ///< An all-NULL segment stays kInt64 (arbitrary).
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  ///< Empty = no NULLs in this segment.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<int32_t> dates_;
  std::vector<Value> values_;
};

/// \brief A horizontal partition: aligned segments (one per column) over the
/// same physical rows, plus an optional selection vector.
///
/// Segments are shared immutably, so projection is a pointer copy and a
/// selection just attaches a position list — neither touches the data.
/// `num_rows()` counts *live* rows (selection applied); `capacity()` is the
/// physical row count, which the chunk carries itself so a zero-column
/// chunk (a projection onto no columns) still has rows. Live row `i` maps
/// to physical row `PhysicalRow(i)`; with no selection the mapping is the
/// identity, and a selection vector lists physical rows in ascending order.
/// A physical row outside the selection holds an unspecified value in every
/// segment — a Function that renames a column shares its input segment,
/// unselected slots included, and a computed column leaves them unset — so
/// no kernel reads one.
class Chunk {
 public:
  using SegmentPtr = std::shared_ptr<const ValueSegment>;
  using SelectionPtr = std::shared_ptr<const std::vector<uint32_t>>;

  Chunk() = default;
  /// Every segment must hold exactly `capacity` values, or be empty (null)
  /// for a column no downstream operator reads (column liveness, DESIGN.md
  /// §8); an empty segment is never read.
  Chunk(size_t capacity, std::vector<SegmentPtr> segments,
        SelectionPtr selection = nullptr)
      : capacity_(capacity),
        segments_(std::move(segments)),
        selection_(std::move(selection)) {}

  size_t num_columns() const { return segments_.size(); }
  size_t capacity() const { return capacity_; }
  size_t num_rows() const {
    return selection_ != nullptr ? selection_->size() : capacity();
  }
  bool has_selection() const { return selection_ != nullptr; }
  const SelectionPtr& selection() const { return selection_; }

  const std::vector<SegmentPtr>& segments() const { return segments_; }
  const SegmentPtr& segment_ptr(size_t c) const { return segments_[c]; }
  const ValueSegment& segment(size_t c) const { return *segments_[c]; }

  uint32_t PhysicalRow(size_t live) const {
    return selection_ != nullptr ? (*selection_)[live]
                                 : static_cast<uint32_t>(live);
  }

  /// Value of column `c` at *live* row `live`.
  Value ValueAt(size_t c, size_t live) const {
    return segments_[c]->At(PhysicalRow(live));
  }

  /// Appends the live rows, in order, as materialized Rows.
  void AppendRowsTo(std::vector<Row>* out) const;

 private:
  size_t capacity_ = 0;
  std::vector<SegmentPtr> segments_;
  SelectionPtr selection_;
};

/// A live row of some chunk, by physical index; a null `chunk` stands for
/// a row of NULLs (a left-join miss).
struct ChunkRow {
  const Chunk* chunk = nullptr;
  uint32_t phys = 0;
};

/// Column `column` of `rows`, in order, as one segment — the segment
/// FromValues would build from the rows' values. When every non-NULL cell
/// comes from a segment of one typed representation the payloads are
/// copied typed, without materializing Values (join outputs, group keys).
ValueSegment GatherColumn(const std::vector<ChunkRow>& rows, size_t column);

/// One chunk over columns [0, num_columns) of rows [begin, end).
Chunk MakeChunk(const std::vector<Row>& rows, size_t num_columns,
                size_t begin, size_t end);

/// Splits `rows` into ceil(n / chunk_size) chunks of at most `chunk_size`
/// rows each (the last one may be partial). `chunk_size` must be >= 1.
std::vector<Chunk> ChunkRows(const std::vector<Row>& rows,
                             size_t num_columns, int64_t chunk_size);

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_CHUNK_H_
