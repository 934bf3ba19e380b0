#ifndef QUARRY_STORAGE_KEY_H_
#define QUARRY_STORAGE_KEY_H_

// Hash keys for every hash table over row keys (DESIGN.md §8). Two
// encoders write the same canonical bytes:
//   * ChunkKeys encodes a whole chunk's keys one column at a time and
//     hashes them in one pass. The ETL kernels' join, aggregation and
//     surrogate-key tables and the foreign-key check key through it.
//   * RowKey builds one key a component at a time, from Values or typed
//     segment rows. Table's primary-key set and indexes and the loader's
//     merge table (TableWriter) key through it.
// KeyIndex interns the bytes of either, and takes ChunkKeys' precomputed
// hash so a probe never hashes a key twice.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/chunk.h"
#include "storage/value.h"

namespace quarry::storage {

/// \brief A composite key in canonical byte form, built one component at a
/// time from Values or straight from typed segment payloads.
///
/// Two keys are equal exactly when their bytes are, and the encoding makes
/// that the key rule:
///   * NULL equals NULL (group-by semantics; joins skip keys with a NULL
///     component themselves, see has_null());
///   * numbers compare by value across INT and DOUBLE: an int equals a
///     double only when the double holds exactly that integer (1 = 1.0,
///     0 = 0.0 = -0.0, but 2^53 + 1 != 2^53 as a double); a NaN equals only
///     a NaN with the same bits;
///   * values of different kinds (bool, number, string, date) never match.
/// This is what a table keyed by Row with HashRow and Value::SameAs decides:
/// SameAs alone would equate an int with a nearby double it rounds to, but
/// such pairs never share a Value::Hash, so that table keeps them apart.
/// A key built from a segment row equals the key built from that row's
/// At() value, whatever the segment's representation.
class RowKey {
 public:
  void Clear() {
    bytes_.clear();
    has_null_ = false;
  }

  void Add(const Value& value);
  /// Adds physical row `row` of `segment`.
  void Add(const ValueSegment& segment, size_t row);
  /// Adds physical row `row` of a typed `segment` as a column of `type`
  /// stores it: an INT bound for a DOUBLE column keys as the double it
  /// becomes.
  void AddAs(const ValueSegment& segment, size_t row, DataType type);

  /// Sets the key to `row`'s columns at `positions`.
  void Set(const Row& row, const std::vector<size_t>& positions);

  std::string_view bytes() const { return bytes_; }
  /// True when some component is NULL.
  bool has_null() const { return has_null_; }

 private:
  std::string bytes_;
  bool has_null_ = false;
};

/// \brief The keys of a chunk's live rows over some key columns: key(i) is
/// the RowKey of live row i's components, has_null(i) its NULL flag and
/// hash(i) KeyIndex::Hash(key(i)).
///
/// Set() encodes one key column at a time, with one typed loop per segment
/// representation (kMixed goes through each row's Value), then hashes every
/// row's key in one pass. A kernel keeps one ChunkKeys per call and Sets it
/// chunk by chunk.
class ChunkKeys {
 public:
  /// Encodes the live rows of `chunk` over the columns at `positions`.
  void Set(const Chunk& chunk, const std::vector<size_t>& positions);

  size_t size() const { return hashes_.size(); }
  std::string_view key(size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }
  bool has_null(size_t i) const { return nulls_[i] != 0; }
  uint64_t hash(size_t i) const { return hashes_[i]; }

 private:
  std::string bytes_;            ///< Every row's key, in row order.
  std::vector<size_t> offsets_;  ///< Row i's key is [offsets_[i], [i + 1]).
  std::vector<uint8_t> nulls_;
  std::vector<uint64_t> hashes_;
};

/// \brief Interns RowKey bytes: each distinct key gets a dense id, in
/// first-inserted order, so a caller's per-key state is a flat vector
/// indexed by id and nothing it emits depends on the hash function.
///
/// Open addressing over flat arrays: copying a KeyIndex copies a handful of
/// vectors, never a node or a vector per key. Sized for fewer than 2^31
/// keys (ids are uint32_t; a slot keeps 32 bits of the hash).
class KeyIndex {
 public:
  static constexpr uint32_t kNotFound = std::numeric_limits<uint32_t>::max();

  /// The hash a key is placed by. A key of at most 16 bytes (one number, a
  /// short string) hashes inline; a longer one takes libstdc++'s
  /// std::hash. Either way the top bits depend on every key byte.
  static uint64_t Hash(std::string_view key);

  size_t size() const { return ends_.size(); }

  /// The key's id, or kNotFound.
  uint32_t Find(std::string_view key) const;
  /// Find with `hash` == Hash(key), computed by the caller.
  uint32_t Find(std::string_view key, uint64_t hash) const;

  /// The key's id and whether it was new; a new key gets id size().
  std::pair<uint32_t, bool> Insert(std::string_view key);
  /// Insert with `hash` == Hash(key), computed by the caller.
  std::pair<uint32_t, bool> Insert(std::string_view key, uint64_t hash);

  /// Removes the key with the highest id, the one inserted last.
  void EraseLast();

  void Clear();

  /// Bytes held by the key bytes, their offsets and the slot table.
  size_t MemoryBytes() const;

 private:
  /// Slot of `key`: the one holding it, or the empty one it would take.
  size_t Probe(std::string_view key, uint64_t hash) const;
  void Grow();

  std::string bytes_;          ///< Every key's bytes, in id order.
  std::vector<size_t> ends_;   ///< End of key id's bytes in bytes_.
  /// Power-of-two table, at most half full. A slot is 0 when empty, else
  /// the key hash's upper 32 bits above (id + 1); the probe start is the
  /// hash's top bits, so growing re-places slots without rehashing keys.
  std::vector<uint64_t> slots_;
  int slot_bits_ = 0;
};

/// \brief Per-key position lists for a KeyIndex: Append(id) records the
/// next position (0, 1, 2, ...) under key `id`, and ForEach walks a key's
/// positions in append order. Flat like KeyIndex: linked through arrays.
class KeyPostings {
 public:
  void Append(uint32_t id);

  template <typename Fn>
  void ForEach(uint32_t id, Fn fn) const {
    if (id >= head_.size()) return;
    for (uint32_t p = head_[id]; p != kEnd; p = next_[p]) fn(p);
  }

  void Clear();

  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  std::vector<uint32_t> head_, tail_;  ///< Per key id; kEnd = none yet.
  std::vector<uint32_t> next_;         ///< Per position.
};

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_KEY_H_
