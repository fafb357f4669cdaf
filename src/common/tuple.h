// Copyright 2026 The pasjoin Authors.
//
// Data model: spatial tuples, data sets, and join result pairs.
//
// A tuple is a point plus an opaque payload of extra non-spatial attributes.
// The payload is what the paper's "tuple size factor" experiments vary
// (Figures 16-18): real spatial records carry names/descriptions whose bytes
// must travel through the shuffle.
#ifndef PASJOIN_COMMON_TUPLE_H_
#define PASJOIN_COMMON_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace pasjoin {

/// Which input relation of the join a tuple belongs to.
enum class Side : uint8_t { kR = 0, kS = 1 };

/// "R" or "S".
inline const char* SideName(Side s) { return s == Side::kR ? "R" : "S"; }

/// Serialized size of the fixed tuple fields (id + x + y) when shuffled.
inline constexpr uint64_t kTupleHeaderBytes = 24;

/// One spatial record: identifier, location, and non-spatial payload bytes.
struct Tuple {
  int64_t id = 0;
  Point pt;
  /// Extra attribute bytes carried with the tuple (tuple size factor).
  /// Empty for pure spatial workloads.
  std::string payload;

  /// Bytes this tuple occupies when shuffled over the (simulated) network.
  uint64_t ShuffleBytes() const { return kTupleHeaderBytes + payload.size(); }
};

/// A named collection of tuples forming one join input.
struct Dataset {
  std::string name;
  std::vector<Tuple> tuples;

  size_t size() const { return tuples.size(); }

  /// Total shuffle bytes if every tuple were transferred once.
  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const Tuple& t : tuples) total += t.ShuffleBytes();
    return total;
  }

  /// Minimum bounding rectangle of the tuples (undefined when empty).
  Rect Mbr() const;

  /// Sets every tuple's payload to `bytes` filler bytes (tuple size factor).
  void SetPayloadBytes(size_t bytes);
};

/// One join result: the ids of the matched (r, s) tuples.
struct ResultPair {
  int64_t r_id = 0;
  int64_t s_id = 0;

  friend bool operator==(const ResultPair& a, const ResultPair& b) {
    return a.r_id == b.r_id && a.s_id == b.s_id;
  }
  friend bool operator<(const ResultPair& a, const ResultPair& b) {
    return a.r_id != b.r_id ? a.r_id < b.r_id : a.s_id < b.s_id;
  }
};

/// The raw ResultPair mix. Its low bits keep the structure of the ids, so
/// nothing routes or indexes pairs by it directly: ResultPairShardHash
/// finalizes it first.
struct ResultPairHash {
  size_t operator()(const ResultPair& p) const {
    uint64_t h = static_cast<uint64_t>(p.r_id) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(p.s_id) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// splitmix64 finalizer: a full-avalanche mix of all 64 bits. Cheap (two
/// multiplies, three shifts) and bijective, so it never loses entropy.
inline uint64_t SplitMix64(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Shard-routing hash for ResultPair: ResultPairHash finalized through
/// SplitMix64 so that `hash % shards` stays balanced even for power-of-two
/// shard counts. The raw ResultPairHash keeps low-bit structure when tuple
/// ids share a power-of-two stride (ids that are multiples of 64 collapse
/// onto a single shard of 8), because `%` on a power of two reads only the
/// low bits; the finalizer avalanches every input bit into them. The
/// engine's distinct uses it twice: the scatter routes a pair to bucket
/// `hash % workers`, and the bucket's open-addressing table indexes by
/// multiply-shift, `(hash * capacity) >> 64`, i.e. by the HIGH bits. The
/// low bits are no use there: within one bucket they are fixed modulo
/// gcd(workers, 2^k), so with 12 workers a power-of-two table indexed by
/// `hash & mask` would leave three quarters of its slots unused.
struct ResultPairShardHash {
  size_t operator()(const ResultPair& p) const {
    return static_cast<size_t>(SplitMix64(ResultPairHash{}(p)));
  }
};

}  // namespace pasjoin

#endif  // PASJOIN_COMMON_TUPLE_H_
