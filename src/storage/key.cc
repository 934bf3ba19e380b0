#include "storage/key.h"

#include <cmath>
#include <cstring>

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

/// The probe start is the hash's top bits, so they must depend on every
/// key byte; libstdc++'s MurmurHash64A ends with an avalanche that does.
uint64_t HashBytes(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

}  // namespace

void RowKey::AddTagged(char tag, const void* payload, size_t size) {
  const size_t at = bytes_.size();
  bytes_.resize(at + 1 + size);
  bytes_[at] = tag;
  if (size > 0) std::memcpy(&bytes_[at + 1], payload, size);
}

void RowKey::AddNumber(double d) {
  if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
    const int64_t i = static_cast<int64_t>(d);  // In range: exact.
    AddTagged(kIntTag, &i, sizeof(i));
    return;
  }
  AddTagged(kFloatTag, &d, sizeof(d));
}

void RowKey::AddString(const std::string& s) {
  const uint64_t size = s.size();
  AddTagged(kStringTag, &size, sizeof(size));
  bytes_.append(s);
}

void RowKey::Add(const Value& value) {
  if (value.is_null()) {
    has_null_ = true;
    AddTagged(kNullTag, nullptr, 0);
  } else if (value.is_int()) {
    const int64_t i = value.as_int();
    AddTagged(kIntTag, &i, sizeof(i));
  } else if (value.is_double()) {
    AddNumber(value.as_double());
  } else if (value.is_string()) {
    AddString(value.as_string());
  } else if (value.is_bool()) {
    const char b = value.as_bool() ? 1 : 0;
    AddTagged(kBoolTag, &b, 1);
  } else {
    const int32_t days = value.as_date_days();
    AddTagged(kDateTag, &days, sizeof(days));
  }
}

void RowKey::Add(const ValueSegment& segment, size_t row) {
  using Rep = ValueSegment::Rep;
  if (segment.rep() == Rep::kMixed) {
    Add(segment.values()[row]);
    return;
  }
  if (segment.IsNull(row)) {
    has_null_ = true;
    AddTagged(kNullTag, nullptr, 0);
    return;
  }
  switch (segment.rep()) {
    case Rep::kInt64:
      AddTagged(kIntTag, &segment.ints()[row], sizeof(int64_t));
      return;
    case Rep::kDouble:
      AddNumber(segment.doubles()[row]);
      return;
    case Rep::kString:
      AddString(segment.strings()[row]);
      return;
    case Rep::kBool: {
      const char b = segment.bools()[row] != 0 ? 1 : 0;
      AddTagged(kBoolTag, &b, 1);
      return;
    }
    case Rep::kDate:
      AddTagged(kDateTag, &segment.dates()[row], sizeof(int32_t));
      return;
    case Rep::kMixed:
      return;  // Handled above.
  }
}

void RowKey::AddAs(const ValueSegment& segment, size_t row, DataType type) {
  if (type == DataType::kDouble &&
      segment.rep() == ValueSegment::Rep::kInt64 && !segment.IsNull(row)) {
    AddNumber(static_cast<double>(segment.ints()[row]));
    return;
  }
  Add(segment, row);
}

void RowKey::Set(const Row& row, const std::vector<size_t>& positions) {
  Clear();
  for (size_t p : positions) Add(row[p]);
}

void RowKey::Set(const Chunk& chunk, const std::vector<size_t>& positions,
                 uint32_t phys) {
  Clear();
  for (size_t p : positions) Add(chunk.segment(p), phys);
}

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
    if (std::string_view(bytes_).substr(begin, ends_[id] - begin) == key) {
      return i;
    }
  }
}

uint32_t KeyIndex::Find(std::string_view key) const {
  if (slots_.empty()) return kNotFound;
  const uint64_t slot = slots_[Probe(key, HashBytes(key))];
  return slot == 0 ? kNotFound : static_cast<uint32_t>(slot) - 1;
}

std::pair<uint32_t, bool> KeyIndex::Insert(std::string_view key) {
  if (2 * (size() + 1) > slots_.size()) Grow();
  const uint64_t hash = HashBytes(key);
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
  slots_[Probe(key, HashBytes(key))] = 0;
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
