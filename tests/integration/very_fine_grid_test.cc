// Copyright 2026 The pasjoin Authors.
//
// A very fine grid: eps = 0.0005 over a 20 x 12.5 data space gives a grid of
// about 250M cells, the size fine-grid's extent reaches at eps = 0.0012.
// Planning state is sized by the sampled cells, not by the grid, so the
// adaptive join must finish in seconds and hold a small heap. The heap is
// counted by replacing the global allocation functions in this binary
// (malloc_usable_size of every live block, as e2ebench counts it).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "core/adaptive_join.h"
#include "datagen/generators.h"
#include "grid/grid.h"
#include "test_util.h"

namespace pasjoin {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(VeryFineGridTest, AdaptiveJoinOverAQuarterBillionCellsIsExactAndSmall) {
  constexpr double kEps = 0.0005;
  const Rect mbr{0, 0, 20, 12.5};
  const Result<grid::Grid> grid = grid::Grid::Make(mbr, kEps);
  ASSERT_TRUE(grid.ok());
  ASSERT_GE(grid.value().num_cells(), 200000000);

  datagen::GaussianClustersOptions clusters;
  clusters.num_clusters = 30;
  clusters.sigma_min = 0.005;
  clusters.sigma_max = 0.03;
  clusters.mbr = mbr;
  const Dataset r = datagen::GenerateGaussianClusters(20000, 3, clusters);
  Dataset s = datagen::GenerateGaussianClusters(20000, 3, clusters);
  // S shares R's clusters; the shift keeps pairs from coinciding.
  for (Tuple& t : s.tuples) {
    t.id += 1000000;
    t.pt.x = std::min(mbr.max_x, t.pt.x + 0.0002);
  }

  core::AdaptiveJoinOptions options;
  options.eps = kEps;
  options.mbr = mbr;
  options.policy = agreements::Policy::kLPiB;
  options.use_lpt = true;
  options.sample_rate = 0.1;
  options.workers = 8;
  options.collect_results = true;

  g_live.store(0);
  g_peak.store(0);
  g_counting.store(true);
  const Stopwatch watch;
  Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
  const double seconds = watch.ElapsedSeconds();
  g_counting.store(false);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const double peak_mib = static_cast<double>(g_peak.load()) / (1 << 20);
  EXPECT_LT(peak_mib, 256.0) << "peak heap MiB";
  // Sanitizers slow every instruction; the bound is for plain builds.
  if (!kSanitized) {
    EXPECT_LT(seconds, 5.0) << "join seconds";
  }

  const std::map<ResultPair, int> truth = testing::BruteForcePairs(r, s, kEps);
  ASSERT_GT(truth.size(), 1000u);
  std::map<ResultPair, int> found;
  for (const ResultPair& p : run.value().pairs) ++found[p];
  EXPECT_EQ(found, truth);
  EXPECT_GT(run.value().metrics.replicated_r + run.value().metrics.replicated_s,
            0u);
}

}  // namespace
}  // namespace pasjoin

// Replacements of the global allocation functions, counting the bytes live
// while the join runs. Every unaligned form is replaced, so blocks never
// cross between these and another allocator's. They are not inlined: GCC 12
// at -O3 would otherwise pair the inlined malloc/free with new/delete and
// report a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (pasjoin::g_counting.load(std::memory_order_relaxed)) {
    const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t now =
        pasjoin::g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t high = pasjoin::g_peak.load(std::memory_order_relaxed);
    while (now > high && !pasjoin::g_peak.compare_exchange_weak(
                             high, now, std::memory_order_relaxed)) {
    }
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr && pasjoin::g_counting.load(std::memory_order_relaxed)) {
    pasjoin::g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
