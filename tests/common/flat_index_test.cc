// Copyright 2026 The pasjoin Authors.
//
// Tests of FlatIndex (common/flat_index.h): every int32 is a valid id, the
// first Insert of an id wins, and growth keeps every mapping.
#include "common/flat_index.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace pasjoin {
namespace {

TEST(FlatIndexTest, EveryInt32IsAValidId) {
  const std::vector<int32_t> ids = {std::numeric_limits<int32_t>::min(), -1,
                                    0, std::numeric_limits<int32_t>::max()};
  FlatIndex index;
  EXPECT_EQ(index.Find(0), FlatIndex::kAbsent);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(index.Find(ids[i]), FlatIndex::kAbsent);
    EXPECT_EQ(index.Insert(ids[i], static_cast<int32_t>(i)),
              static_cast<int32_t>(i));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    // A second Insert keeps the first value.
    EXPECT_EQ(index.Insert(ids[i], 99), static_cast<int32_t>(i));
    EXPECT_EQ(index.Find(ids[i]), static_cast<int32_t>(i));
  }
  EXPECT_EQ(index.Find(1), FlatIndex::kAbsent);
  EXPECT_EQ(index.Find(-2), FlatIndex::kAbsent);
}

TEST(FlatIndexTest, GrowthKeepsEveryMapping) {
  // Starts at 16 entries and rehashes several times, negative ids included.
  FlatIndex index;
  for (int32_t id = -500; id < 500; ++id) {
    index.Insert(id * 7919, id + 500);
  }
  for (int32_t id = -500; id < 500; ++id) {
    EXPECT_EQ(index.Find(id * 7919), id + 500) << id;
    EXPECT_EQ(index.Find(id * 7919 + 1), FlatIndex::kAbsent) << id;
  }
}

}  // namespace
}  // namespace pasjoin
