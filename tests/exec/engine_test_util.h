// Copyright 2026 The pasjoin Authors.
//
// Shared helper for the engine tests.
#ifndef PASJOIN_TESTS_EXEC_ENGINE_TEST_UTIL_H_
#define PASJOIN_TESTS_EXEC_ENGINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "common/macros.h"
#include "exec/engine.h"

namespace pasjoin::testing {

/// Runs exec::TryRunPartitionedJoin and requires success: a failed run
/// records the status as a test failure and aborts the test.
inline exec::JoinRun MustRun(
    const Dataset& r, const Dataset& s, const exec::AssignFn& assign,
    const exec::OwnerFn& owner, const exec::EngineOptions& options,
    const exec::LocalJoinFn& local_join = exec::LocalJoinFn()) {
  Result<exec::JoinRun> result =
      exec::TryRunPartitionedJoin(r, s, assign, owner, options, local_join);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  PASJOIN_CHECK(result.ok());
  return result.MoveValue();
}

}  // namespace pasjoin::testing

#endif  // PASJOIN_TESTS_EXEC_ENGINE_TEST_UTIL_H_
