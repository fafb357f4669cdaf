// Copyright 2026 The pasjoin Authors.
//
// An open-addressing map from int32 ids (cells, quartets, partitions) to
// non-negative int32 values (slots, owners). The planner keeps state only
// for the cells a sample touched, and regroup numbers only the partitions
// a worker receives; this map finds that state without a table sized by the
// grid. An entry is empty when its value is kAbsent, so every int32 is a
// valid id. Linear probing over a power-of-two table kept at most half
// full, so a lookup is one multiply and, almost always, one cache line. Ids
// are hashed by blocks of 8: the 8 ids of a block (8 cells of a grid row)
// have adjacent home slots, so a scan in id order walks the table's cache
// lines instead of jumping between them.
#ifndef PASJOIN_COMMON_FLAT_INDEX_H_
#define PASJOIN_COMMON_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pasjoin {

class FlatIndex {
 public:
  /// What Find returns for an absent key.
  static constexpr int32_t kAbsent = -1;

  /// Presizes the table for `n` keys.
  void Reserve(size_t n) {
    if (2 * n > table_.size()) Rehash(2 * n);
  }

  /// The value of `key`, or kAbsent.
  int32_t Find(int32_t key) const {
    return table_.empty() ? kAbsent : table_[Probe(key)].value;
  }

  /// Maps `key` to `value` (>= 0) unless it is already mapped; returns the
  /// stored value either way.
  int32_t Insert(int32_t key, int32_t value) {
    if (2 * (size_ + 1) > table_.size()) Rehash(2 * (size_ + 1));
    Entry& e = table_[Probe(key)];
    if (e.value == kAbsent) {
      e = Entry{key, value};
      ++size_;
    }
    return e.value;
  }

 private:
  struct Entry {
    int32_t key = 0;
    int32_t value = kAbsent;
  };

  /// The slot holding `key`, or the empty slot where it would go. The home
  /// slot is the Fibonacci hash of the key's block (the top bits of
  /// block * 2^32/phi) followed by the key's offset within the block.
  size_t Probe(int32_t key) const {
    const auto u = static_cast<uint32_t>(key);
    size_t i = ((static_cast<size_t>(((u >> 3) * 0x9e3779b9U) >> shift_) << 3) |
                (u & 7)) &
               mask_;
    while (table_[i].key != key && table_[i].value != kAbsent) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Grows the table to the first power of two >= max(16, capacity).
  void Rehash(size_t capacity) {
    size_t size = 16;
    shift_ = 32 - 1;  // 16 slots hold 2 blocks: 1 bit of block number
    for (; size < capacity; size *= 2) --shift_;
    std::vector<Entry> old(size);
    old.swap(table_);
    mask_ = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.value != kAbsent) table_[Probe(e.key)] = e;
    }
  }

  std::vector<Entry> table_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

}  // namespace pasjoin

#endif  // PASJOIN_COMMON_FLAT_INDEX_H_
