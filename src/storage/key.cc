#include "storage/key.h"

#include <cmath>
#include <cstring>
#include <type_traits>

namespace quarry::storage {

namespace {

// Component tags. A number is 'I' when it holds an int64 exactly, else 'F'
// with its bits, so equal bytes mean equal values across INT and DOUBLE.
constexpr char kNullTag = 'N';
constexpr char kBoolTag = 'B';
constexpr char kIntTag = 'I';
constexpr char kFloatTag = 'F';
constexpr char kStringTag = 'S';
constexpr char kDateTag = 'D';

constexpr uint64_t kTagMask = 0xFFFFFFFF00000000ull;
constexpr int kMinSlotBits = 4;

// The key components, one type per kind of value: size() is the component's
// length in bytes, and Put(out) writes it at `out` and returns its end.
// RowKey and ChunkKeys both encode through these.

struct NullPart {
  size_t size() const { return 1; }
  char* Put(char* out) const {
    *out = kNullTag;
    return out + 1;
  }
};

/// A tag and a fixed-size payload: bool (one byte), int, date.
template <char kTag, typename T>
struct FixedPart {
  T payload;
  size_t size() const { return 1 + sizeof(T); }
  char* Put(char* out) const {
    *out = kTag;
    std::memcpy(out + 1, &payload, sizeof(T));
    return out + 1 + sizeof(T);
  }
};
using BoolPart = FixedPart<kBoolTag, char>;
using IntPart = FixedPart<kIntTag, int64_t>;
using DatePart = FixedPart<kDateTag, int32_t>;

/// A double keys as the int64 it holds exactly, else as its bits.
struct NumberPart {
  double d;
  size_t size() const { return 1 + sizeof(double); }
  char* Put(char* out) const {
    if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
      return IntPart{static_cast<int64_t>(d)}.Put(out);  // In range: exact.
    }
    return FixedPart<kFloatTag, double>{d}.Put(out);
  }
};

/// A string: its length, then its bytes.
struct StringPart {
  std::string_view s;
  size_t size() const { return 1 + sizeof(uint64_t) + s.size(); }
  char* Put(char* out) const {
    out = FixedPart<kStringTag, uint64_t>{s.size()}.Put(out);
    if (!s.empty()) std::memcpy(out, s.data(), s.size());
    return out + s.size();
  }
};

template <typename Part>
constexpr bool kIsNull = std::is_same_v<Part, NullPart>;

/// Calls fn(part) with `value`'s component.
template <typename Fn>
void VisitValue(const Value& value, Fn&& fn) {
  if (value.is_null()) {
    fn(NullPart{});
  } else if (value.is_int()) {
    fn(IntPart{value.as_int()});
  } else if (value.is_double()) {
    fn(NumberPart{value.as_double()});
  } else if (value.is_string()) {
    fn(StringPart{value.as_string()});
  } else if (value.is_bool()) {
    fn(BoolPart{value.as_bool() ? char{1} : char{0}});
  } else {
    fn(DatePart{value.as_date_days()});
  }
}

/// Calls fn(i, part) with the component of physical row rows[i] of
/// `segment` (row i when `rows` is null) for i in [0, n): one typed loop
/// per representation; kMixed goes through each row's Value.
template <typename Fn>
void VisitRows(const ValueSegment& segment, const uint32_t* rows, size_t n,
               Fn&& fn) {
  using Rep = ValueSegment::Rep;
  auto row = [rows](size_t i) -> size_t {
    return rows != nullptr ? rows[i] : i;
  };
  if (segment.rep() == Rep::kMixed) {
    const Value* values = segment.values().data();
    for (size_t i = 0; i < n; ++i) {
      VisitValue(values[row(i)], [&](const auto& part) { fn(i, part); });
    }
    return;
  }
  const uint8_t* nulls =
      segment.has_nulls() ? segment.nulls().data() : nullptr;
  auto each = [&](auto part_of) {
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row(i);
      if (nulls != nullptr && nulls[r] != 0) {
        fn(i, NullPart{});
      } else {
        fn(i, part_of(r));
      }
    }
  };
  switch (segment.rep()) {
    case Rep::kInt64:
      each([p = segment.ints().data()](size_t r) { return IntPart{p[r]}; });
      return;
    case Rep::kDouble:
      each([p = segment.doubles().data()](size_t r) {
        return NumberPart{p[r]};
      });
      return;
    case Rep::kString:
      each([p = segment.strings().data()](size_t r) {
        return StringPart{p[r]};
      });
      return;
    case Rep::kBool:
      each([p = segment.bools().data()](size_t r) {
        return BoolPart{p[r] != 0 ? char{1} : char{0}};
      });
      return;
    case Rep::kDate:
      each([p = segment.dates().data()](size_t r) { return DatePart{p[r]}; });
      return;
    case Rep::kMixed:
      return;  // Handled above.
  }
}

/// The size of every row's component of `segment` when they all have one
/// (a fixed-width representation without NULLs), else 0.
size_t UniformPartSize(const ValueSegment& segment) {
  if (segment.has_nulls()) return 0;
  switch (segment.rep()) {
    case ValueSegment::Rep::kInt64:
      return IntPart{}.size();
    case ValueSegment::Rep::kDouble:
      return NumberPart{}.size();
    case ValueSegment::Rep::kBool:
      return BoolPart{}.size();
    case ValueSegment::Rep::kDate:
      return DatePart{}.size();
    case ValueSegment::Rep::kString:
    case ValueSegment::Rep::kMixed:
      return 0;
  }
  return 0;
}

/// Appends `part` to a RowKey's bytes and NULL flag.
template <typename Part>
void AppendPart(const Part& part, std::string* bytes, bool* has_null) {
  if constexpr (kIsNull<Part>) *has_null = true;
  const size_t at = bytes->size();
  bytes->resize(at + part.size());
  part.Put(bytes->data() + at);
}

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output
/// bit.
inline uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// KeyIndex::Hash. The probe start is the hash's top bits, so they must
/// depend on every key byte. A key of at most 16 bytes is read as two
/// words that together cover it (overlapping when it is shorter), and each
/// word goes through a bijective finalizer; libstdc++'s MurmurHash64A ends
/// with an avalanche that does the same for longer keys.
inline uint64_t HashKey(std::string_view key) {
  const size_t n = key.size();
  if (n > 16) return std::hash<std::string_view>{}(key);
  const char* p = key.data();
  uint64_t lo = 0;
  uint64_t hi = 0;
  if (n >= 8) {
    lo = Load<uint64_t>(p);
    hi = Load<uint64_t>(p + n - 8);
  } else if (n >= 4) {
    lo = Load<uint32_t>(p);
    hi = Load<uint32_t>(p + n - 4);
  } else if (n > 0) {
    lo = uint64_t{static_cast<uint8_t>(p[0])} |
         uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
         uint64_t{static_cast<uint8_t>(p[n - 1])} << 16;
  }
  return Fmix64(lo ^ Fmix64(hi ^ (n * 0x9E3779B97F4A7C15ull)));
}

}  // namespace

void RowKey::Add(const Value& value) {
  VisitValue(value, [this](const auto& part) {
    AppendPart(part, &bytes_, &has_null_);
  });
}

void RowKey::Add(const ValueSegment& segment, size_t row) {
  const uint32_t r = static_cast<uint32_t>(row);
  VisitRows(segment, &r, 1, [this](size_t, const auto& part) {
    AppendPart(part, &bytes_, &has_null_);
  });
}

void RowKey::AddAs(const ValueSegment& segment, size_t row, DataType type) {
  if (type == DataType::kDouble &&
      segment.rep() == ValueSegment::Rep::kInt64 && !segment.IsNull(row)) {
    AppendPart(NumberPart{static_cast<double>(segment.ints()[row])}, &bytes_,
               &has_null_);
    return;
  }
  Add(segment, row);
}

void RowKey::Set(const Row& row, const std::vector<size_t>& positions) {
  Clear();
  for (size_t p : positions) Add(row[p]);
}

void ChunkKeys::Set(const Chunk& chunk, const std::vector<size_t>& positions) {
  const size_t n = chunk.num_rows();
  const uint32_t* rows =
      chunk.has_selection() ? chunk.selection()->data() : nullptr;
  // offsets[i + 1] holds row i's key length (less `uniform`, the part
  // every row shares), then where its next component goes, and in the end
  // where its key ends, which is where row i + 1's begins.
  offsets_.assign(n + 1, 0);
  size_t* offsets = offsets_.data();
  size_t uniform = 0;
  for (size_t p : positions) {
    const ValueSegment& segment = chunk.segment(p);
    if (const size_t size = UniformPartSize(segment); size > 0) {
      uniform += size;
      continue;
    }
    VisitRows(segment, rows, n, [offsets](size_t i, const auto& part) {
      offsets[i + 1] += part.size();
    });
  }
  size_t total = 0;
  for (size_t i = 1; i <= n; ++i) {
    const size_t size = offsets[i] + uniform;
    offsets[i] = total;
    total += size;
  }
  bytes_.resize(total);
  nulls_.assign(n, 0);
  char* bytes = bytes_.data();
  uint8_t* nulls = nulls_.data();
  for (size_t p : positions) {
    VisitRows(chunk.segment(p), rows, n,
              [offsets, bytes, nulls](size_t i, const auto& part) {
                if constexpr (kIsNull<std::decay_t<decltype(part)>>) {
                  nulls[i] = 1;
                }
                offsets[i + 1] = part.Put(bytes + offsets[i + 1]) - bytes;
              });
  }
  hashes_.resize(n);
  for (size_t i = 0; i < n; ++i) hashes_[i] = HashKey(key(i));
}

uint64_t KeyIndex::Hash(std::string_view key) { return HashKey(key); }

size_t KeyIndex::Probe(std::string_view key, uint64_t hash) const {
  const uint64_t tag = hash & kTagMask;
  const size_t mask = slots_.size() - 1;
  for (size_t i = static_cast<size_t>(hash >> (64 - slot_bits_));;
       i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if ((slot & kTagMask) != tag) continue;
    const uint32_t id = static_cast<uint32_t>(slot) - 1;
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    if (ends_[id] - begin == key.size() &&
        (key.empty() ||
         std::memcmp(bytes_.data() + begin, key.data(), key.size()) == 0)) {
      return i;
    }
  }
}

uint32_t KeyIndex::Find(std::string_view key) const {
  return Find(key, HashKey(key));
}

uint32_t KeyIndex::Find(std::string_view key, uint64_t hash) const {
  if (slots_.empty()) return kNotFound;
  const uint64_t slot = slots_[Probe(key, hash)];
  return slot == 0 ? kNotFound : static_cast<uint32_t>(slot) - 1;
}

std::pair<uint32_t, bool> KeyIndex::Insert(std::string_view key) {
  return Insert(key, HashKey(key));
}

std::pair<uint32_t, bool> KeyIndex::Insert(std::string_view key,
                                           uint64_t hash) {
  if (2 * (size() + 1) > slots_.size()) Grow();
  const size_t i = Probe(key, hash);
  if (slots_[i] != 0) return {static_cast<uint32_t>(slots_[i]) - 1, false};
  const uint32_t id = static_cast<uint32_t>(size());
  slots_[i] = (hash & kTagMask) | (uint64_t{id} + 1);
  bytes_.append(key);
  ends_.push_back(bytes_.size());
  return {id, true};
}

void KeyIndex::EraseLast() {
  const size_t begin = ends_.size() > 1 ? ends_[ends_.size() - 2] : 0;
  const std::string_view key =
      std::string_view(bytes_).substr(begin, ends_.back() - begin);
  // The last key was placed after every other one, so no probe sequence
  // passes through its slot: emptying it restores the table before it.
  slots_[Probe(key, HashKey(key))] = 0;
  bytes_.resize(begin);
  ends_.pop_back();
}

size_t KeyIndex::MemoryBytes() const {
  return bytes_.capacity() + ends_.capacity() * sizeof(size_t) +
         slots_.capacity() * sizeof(uint64_t);
}

void KeyIndex::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slot_bits_ = old.empty() ? kMinSlotBits : slot_bits_ + 1;
  slots_.assign(size_t{1} << slot_bits_, 0);
  const size_t mask = slots_.size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    // The slot keeps the hash's upper 32 bits: enough for the new start.
    size_t i = static_cast<size_t>(slot >> (64 - slot_bits_));
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void KeyIndex::Clear() {
  bytes_.clear();
  ends_.clear();
  slots_.clear();
  slot_bits_ = 0;
}

void KeyPostings::Append(uint32_t id) {
  const uint32_t position = static_cast<uint32_t>(next_.size());
  next_.push_back(kEnd);
  if (id >= head_.size()) {
    head_.resize(size_t{id} + 1, kEnd);
    tail_.resize(size_t{id} + 1, kEnd);
  }
  if (head_[id] == kEnd) {
    head_[id] = position;
  } else {
    next_[tail_[id]] = position;
  }
  tail_[id] = position;
}

size_t KeyPostings::MemoryBytes() const {
  return (head_.capacity() + tail_.capacity() + next_.capacity()) *
         sizeof(uint32_t);
}

void KeyPostings::Clear() {
  head_.clear();
  tail_.clear();
  next_.clear();
}

}  // namespace quarry::storage
