// Copyright 2026 The pasjoin Authors.
//
// Shared helpers for the engine tests.
#ifndef PASJOIN_TESTS_EXEC_ENGINE_TEST_UTIL_H_
#define PASJOIN_TESTS_EXEC_ENGINE_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/tuple.h"
#include "exec/engine.h"
#include "exec/metrics.h"

namespace pasjoin::testing {

/// Runs exec::TryRunPartitionedJoin and requires success: a failed run
/// records the status as a test failure and aborts the test.
inline exec::JoinRun MustRun(const Dataset& r, const Dataset& s,
                             const exec::AssignFn& assign,
                             const exec::OwnerFn& owner,
                             const exec::EngineOptions& options) {
  Result<exec::JoinRun> result =
      exec::TryRunPartitionedJoin(r, s, assign, owner, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  PASJOIN_CHECK(result.ok());
  return result.MoveValue();
}

/// The run's result pairs, sorted.
inline std::vector<ResultPair> SortedPairs(exec::JoinRun run) {
  std::sort(run.pairs.begin(), run.pairs.end());
  return run.pairs;
}

/// Expects `a` and `b` to hold the same value in every exec::kCounterFields
/// counter whose kind is in `kinds`, and the same algorithm, local kernel
/// and worker count. `label` names the case in failure messages.
inline void ExpectSameCounters(const exec::JobMetrics& a,
                               const exec::JobMetrics& b,
                               std::initializer_list<exec::CounterKind> kinds,
                               const std::string& label = "") {
  for (const exec::CounterField& f : exec::kCounterFields) {
    if (std::find(kinds.begin(), kinds.end(), f.kind) == kinds.end()) {
      continue;
    }
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name << " " << label;
  }
  EXPECT_EQ(a.algorithm, b.algorithm) << label;
  EXPECT_EQ(a.local_kernel, b.local_kernel) << label;
  EXPECT_EQ(a.workers, b.workers) << label;
}

/// The value exported under `name` in one list of an obs::TraceExport. A
/// name that is missing fails the test and reads as zero.
template <typename T>
T ExportedValue(const std::vector<std::pair<const char*, T>>& values,
                std::string_view name) {
  for (const auto& [exported_name, value] : values) {
    if (name == exported_name) return value;
  }
  ADD_FAILURE() << "nothing exported under " << name;
  return T{};
}

/// Payload lengths around std::string's small-buffer limit.
inline constexpr size_t kPayloadLengths[] = {0, 1, 15, 16, 127, 1000};

/// The payload a tuple with id `id` carries in the payload tests: a length
/// from kPayloadLengths and bytes that depend on the id, NUL and high bytes
/// included.
inline std::string ExpectedPayload(int64_t id) {
  const auto n = static_cast<uint64_t>(id);
  std::string out(kPayloadLengths[n % 6], '\0');
  for (size_t k = 0; k < out.size(); ++k) {
    out[k] = static_cast<char>((n * 131 + k * 7) & 0xff);
  }
  return out;
}

/// Gives every tuple of `d` its ExpectedPayload.
inline void SetExpectedPayloads(Dataset* d) {
  for (Tuple& t : d->tuples) t.payload = ExpectedPayload(t.id);
}

/// What JobMetrics::shuffle_bytes must be when payloads are carried: the
/// 24-byte header plus the payload, summed over every shuffled instance.
inline uint64_t ExpectedShuffleBytes(const Dataset& r, const Dataset& s,
                                     const exec::AssignFn& assign) {
  uint64_t bytes = 0;
  for (const Side side : {Side::kR, Side::kS}) {
    for (const Tuple& t : (side == Side::kR ? r : s).tuples) {
      bytes += assign(t, side).size() * t.ShuffleBytes();
    }
  }
  return bytes;
}

}  // namespace pasjoin::testing

#endif  // PASJOIN_TESTS_EXEC_ENGINE_TEST_UTIL_H_
