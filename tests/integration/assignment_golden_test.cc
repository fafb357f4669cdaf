// Copyright 2026 The pasjoin Authors.
//
// Golden plans: for every replication policy x marking order x
// duplicate-free setting, at 1 and at 4 planning threads, the cells every
// tuple is assigned to (one checksum over all partition lists), the marked
// and locked edge counts, and a checksum of every cell's LPT owner are
// pinned to recorded values. The partition-list checksum is computed twice,
// once through the scalar Assign and once through the map's blocks
// (AssignBatch), and both must equal the pin. The grids cover the regimes
// the planner must handle: a 2.5M-cell grid with a 3% sample (nearly every
// cell unsampled), a 25k-cell grid with a dense sample, the same at the
// 2 * eps cells the end-to-end benchmark uses (where almost every tuple
// lies in a corner square), and the 1 x N and N x 1 grids, which have side
// pairs but no quartets. A change to how the plan is stored or evaluated
// must keep every value bit-identical.
//
// On a mismatch the test prints the observed table in source syntax.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "core/replication.h"
#include "datagen/generators.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin::core {
namespace {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::MarkingOrder;
using agreements::Policy;

constexpr double kEps = 0.2;
/// Cells of 2.5 * eps = 0.5 units unless a scenario says otherwise: an MBR of
/// W x H units has 2W x 2H cells.
constexpr double kFactor = 2.5;
constexpr int kWorkers = 7;

struct Scenario {
  const char* name;
  Rect mbr;
  int nx;
  int ny;
  size_t r_points;
  size_t s_points;
  double sample_rate;
  bool clustered;
  double resolution_factor = kFactor;
};

/// FNV-1a, fed 64-bit words.
class Checksum {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

Dataset Points(const Scenario& sc, size_t n, uint64_t seed) {
  if (!sc.clustered) return datagen::GenerateUniform(n, seed, sc.mbr);
  datagen::GaussianClustersOptions options;
  options.num_clusters = 30;
  options.sigma_min = 1.0;
  options.sigma_max = 12.0;
  options.mbr = sc.mbr;
  return datagen::GenerateGaussianClusters(n, seed, options);
}

/// One row of the golden table.
struct Row {
  uint64_t assignment;
  uint64_t marked;
  uint64_t locked;

  friend bool operator==(const Row&, const Row&) = default;
};

struct Plans {
  /// One row per policy x order x duplicate-free, in table order.
  std::vector<Row> rows;
  /// The same rows with the assignment checksum taken through AssignBatch.
  std::vector<Row> batch_rows;
  uint64_t lpt_owners = 0;
};

/// Mixes one partition list into `sum`.
template <typename Cells>
void MixList(const Cells& cells, size_t n, Checksum* sum) {
  sum->Mix(n);
  for (size_t i = 0; i < n; ++i) {
    sum->Mix(static_cast<uint64_t>(static_cast<uint32_t>(cells[i])));
  }
}

constexpr Policy kPolicies[] = {Policy::kLPiB, Policy::kDiff,
                                Policy::kUniformR, Policy::kUniformS};
constexpr MarkingOrder kOrders[] = {MarkingOrder::kPaper,
                                    MarkingOrder::kWeightDescending,
                                    MarkingOrder::kIndexOrder};

std::string RowName(Policy policy, MarkingOrder order, bool duplicate_free) {
  return std::string(agreements::PolicyName(policy))
      .append("/")
      .append(agreements::MarkingOrderName(order))
      .append(duplicate_free ? "/df" : "/distinct");
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

Plans PlanAll(const Scenario& sc, int threads) {
  const Result<grid::Grid> made =
      grid::Grid::Make(sc.mbr, kEps, sc.resolution_factor);
  EXPECT_TRUE(made.ok());
  const grid::Grid& grid = made.value();
  EXPECT_EQ(grid.nx(), sc.nx);
  EXPECT_EQ(grid.ny(), sc.ny);
  const Dataset r = Points(sc, sc.r_points, 71);
  const Dataset s = Points(sc, sc.s_points, 72);
  grid::GridStats stats(&grid);
  stats.AddSample(Side::kR, r, sc.sample_rate, 5);
  stats.AddSample(Side::kS, s, sc.sample_rate, 6);
  const AgreementType tie_break = AgreementType::kReplicateR;

  PlanningOptions options;
  options.threads = threads;
  options.min_parallel_items = 1;  // Take the parallel path at > 1 thread.
  Planner planner(options);

  Plans out;
  for (const Policy policy : kPolicies) {
    for (const MarkingOrder order : kOrders) {
      for (const bool duplicate_free : {true, false}) {
        const AgreementGraph graph =
            PlanAgreementGraph(grid, stats, policy, tie_break, duplicate_free,
                               order, &planner, /*trace=*/nullptr);
        const ReplicationAssigner assigner(&grid, &graph);
        Checksum sum;
        Checksum batch_sum;
        for (const Dataset* d : {&r, &s}) {
          const Side side = d == &r ? Side::kR : Side::kS;
          std::vector<Point> points;
          for (const Tuple& t : d->tuples) {
            const CellList cells = assigner.Assign(t.pt, side);
            MixList(cells, cells.size(), &sum);
            points.push_back(t.pt);
          }
          exec::RoutedBlock block{};
          constexpr size_t kBlock = exec::RoutedBlock::kMaxTuples;
          for (size_t at = 0; at < points.size(); at += kBlock) {
            const size_t n = std::min(kBlock, points.size() - at);
            assigner.AssignBatch(std::span<const Point>(points).subspan(at, n),
                                 side, &block);
            for (size_t k = 0; k < n; ++k) {
              const size_t begin = k == 0 ? 0 : block.end[k - 1];
              MixList(block.part.data() + begin, block.end[k] - begin,
                      &batch_sum);
            }
          }
        }
        out.rows.push_back(
            Row{sum.value(), graph.CountMarked(), graph.CountLocked()});
        out.batch_rows.push_back(
            Row{batch_sum.value(), graph.CountMarked(), graph.CountLocked()});
      }
    }
  }
  const CellAssignment lpt = PlanLptAssignment(
      PlanCellCosts(grid, stats, &planner, /*trace=*/nullptr), kWorkers,
      /*trace=*/nullptr);
  Checksum owners;
  for (grid::CellId c = 0; c < grid.num_cells(); ++c) {
    owners.Mix(static_cast<uint64_t>(lpt.OwnerOf(c)));
  }
  out.lpt_owners = owners.value();
  return out;
}

std::string TableOf(const std::vector<Row>& rows, uint64_t lpt_owners) {
  std::string out = "{\n";
  size_t i = 0;
  for (const Policy policy : kPolicies) {
    for (const MarkingOrder order : kOrders) {
      for (const bool duplicate_free : {true, false}) {
        const Row& row = rows[i++];
        out.append("  {")
            .append(Hex(row.assignment))
            .append(", ")
            .append(std::to_string(row.marked))
            .append(", ")
            .append(std::to_string(row.locked))
            .append("},  // ")
            .append(RowName(policy, order, duplicate_free))
            .append("\n");
      }
    }
  }
  return out.append("}, lpt ").append(Hex(lpt_owners)).append("\n");
}

struct Golden {
  Scenario scenario;
  std::vector<Row> rows;
  uint64_t lpt_owners;
};

void ExpectGolden(const Golden& golden) {
  for (const int threads : {1, 4}) {
    const Plans got = PlanAll(golden.scenario, threads);
    const bool same =
        got.rows == golden.rows && got.lpt_owners == golden.lpt_owners;
    EXPECT_TRUE(same) << golden.scenario.name << " at " << threads
                      << " planning threads: observed\n"
                      << TableOf(got.rows, got.lpt_owners);
    EXPECT_TRUE(got.batch_rows == golden.rows)
        << golden.scenario.name << " at " << threads
        << " planning threads, through AssignBatch: observed\n"
        << TableOf(got.batch_rows, got.lpt_owners);
  }
}

TEST(AssignmentGoldenTest, SparselySampledMillionsOfCells) {
  ExpectGolden({{"fine", Rect{0, 0, 1000, 625}, 2000, 1250, 100000, 80000,
                 0.03, true},
                {
                 {0xbfe9c47cb815cf60ULL, 16927, 26066},  // LPiB/paper/df
                 {0xada04776ea466278ULL, 0, 0},  // LPiB/paper/distinct
                 {0xa65f8be854932852ULL, 16925, 25400},  // LPiB/weight-desc/df
                 {0xada04776ea466278ULL, 0, 0},  // LPiB/weight-desc/distinct
                 {0xa65f8be854932852ULL, 16925, 25400},  // LPiB/index/df
                 {0xada04776ea466278ULL, 0, 0},  // LPiB/index/distinct
                 {0x134cf30d06831293ULL, 16901, 26020},  // DIFF/paper/df
                 {0x8888b45eb1b92500ULL, 0, 0},  // DIFF/paper/distinct
                 {0xedc5d02e36115849ULL, 16900, 25362},  // DIFF/weight-desc/df
                 {0x8888b45eb1b92500ULL, 0, 0},  // DIFF/weight-desc/distinct
                 {0xedc5d02e36115849ULL, 16900, 25362},  // DIFF/index/df
                 {0x8888b45eb1b92500ULL, 0, 0},  // DIFF/index/distinct
                 {0x71c49e85dccd7e67ULL, 0, 0},  // UNI(R)/paper/df
                 {0x71c49e85dccd7e67ULL, 0, 0},  // UNI(R)/paper/distinct
                 {0x71c49e85dccd7e67ULL, 0, 0},  // UNI(R)/weight-desc/df
                 {0x71c49e85dccd7e67ULL, 0, 0},  // UNI(R)/weight-desc/distinct
                 {0x71c49e85dccd7e67ULL, 0, 0},  // UNI(R)/index/df
                 {0x71c49e85dccd7e67ULL, 0, 0},  // UNI(R)/index/distinct
                 {0x693f837486b46c46ULL, 0, 0},  // UNI(S)/paper/df
                 {0x693f837486b46c46ULL, 0, 0},  // UNI(S)/paper/distinct
                 {0x693f837486b46c46ULL, 0, 0},  // UNI(S)/weight-desc/df
                 {0x693f837486b46c46ULL, 0, 0},  // UNI(S)/weight-desc/distinct
                 {0x693f837486b46c46ULL, 0, 0},  // UNI(S)/index/df
                 {0x693f837486b46c46ULL, 0, 0},  // UNI(S)/index/distinct
                },
                0x1de7008d394194e6ULL});
}

TEST(AssignmentGoldenTest, DenselySampledGrid) {
  ExpectGolden({{"coarse", Rect{0, 0, 100, 62.5}, 200, 125, 40000, 30000,
                 0.1, true},
                {
                 {0x58530336abd237e9ULL, 15639, 25087},  // LPiB/paper/df
                 {0x5b3d634c5900031aULL, 0, 0},  // LPiB/paper/distinct
                 {0x74201173efe271feULL, 15631, 23768},  // LPiB/weight-desc/df
                 {0x5b3d634c5900031aULL, 0, 0},  // LPiB/weight-desc/distinct
                 {0x23e472921b4ab7a2ULL, 15632, 23769},  // LPiB/index/df
                 {0x5b3d634c5900031aULL, 0, 0},  // LPiB/index/distinct
                 {0xf7d67db9ba48b4a0ULL, 14973, 23851},  // DIFF/paper/df
                 {0xf6557e27d3aff598ULL, 0, 0},  // DIFF/paper/distinct
                 {0x103e3a53376a4f52ULL, 14970, 22726},  // DIFF/weight-desc/df
                 {0xf6557e27d3aff598ULL, 0, 0},  // DIFF/weight-desc/distinct
                 {0xe90eacad62f1ac57ULL, 14970, 22725},  // DIFF/index/df
                 {0xf6557e27d3aff598ULL, 0, 0},  // DIFF/index/distinct
                 {0x3efa1200af67292fULL, 0, 0},  // UNI(R)/paper/df
                 {0x3efa1200af67292fULL, 0, 0},  // UNI(R)/paper/distinct
                 {0x3efa1200af67292fULL, 0, 0},  // UNI(R)/weight-desc/df
                 {0x3efa1200af67292fULL, 0, 0},  // UNI(R)/weight-desc/distinct
                 {0x3efa1200af67292fULL, 0, 0},  // UNI(R)/index/df
                 {0x3efa1200af67292fULL, 0, 0},  // UNI(R)/index/distinct
                 {0x395a6c0508a7418aULL, 0, 0},  // UNI(S)/paper/df
                 {0x395a6c0508a7418aULL, 0, 0},  // UNI(S)/paper/distinct
                 {0x395a6c0508a7418aULL, 0, 0},  // UNI(S)/weight-desc/df
                 {0x395a6c0508a7418aULL, 0, 0},  // UNI(S)/weight-desc/distinct
                 {0x395a6c0508a7418aULL, 0, 0},  // UNI(S)/index/df
                 {0x395a6c0508a7418aULL, 0, 0},  // UNI(S)/index/distinct
                },
                0xa556c400419119a3ULL});
}

TEST(AssignmentGoldenTest, DenselySampledGridAtTwoEpsCells) {
  // Cells of 2 * eps (0.4005 x 0.4008 units), as in the end-to-end
  // benchmark: corner squares cover most of every cell.
  ExpectGolden({{"coarse-2eps", Rect{0, 0, 80.1, 50.1}, 200, 125, 40000,
                 30000, 0.1, true, 2.0},
                {
                 {0x817a467f5a78f7f7ULL, 17108, 27345},  // LPiB/paper/df
                 {0x9015ddfc4bfb53a6ULL, 0, 0},  // LPiB/paper/distinct
                 {0x13be1c41dd9f5a16ULL, 17066, 25963},  // LPiB/weight-desc/df
                 {0x9015ddfc4bfb53a6ULL, 0, 0},  // LPiB/weight-desc/distinct
                 {0x5cbb504e30426e53ULL, 17065, 25961},  // LPiB/index/df
                 {0x9015ddfc4bfb53a6ULL, 0, 0},  // LPiB/index/distinct
                 {0xd8766d08921b39a0ULL, 16288, 25820},  // DIFF/paper/df
                 {0x26a5282fee37c965ULL, 0, 0},  // DIFF/paper/distinct
                 {0xb9dc24684d1da3edULL, 16282, 24719},  // DIFF/weight-desc/df
                 {0x26a5282fee37c965ULL, 0, 0},  // DIFF/weight-desc/distinct
                 {0x503226784ec3e45bULL, 16281, 24715},  // DIFF/index/df
                 {0x26a5282fee37c965ULL, 0, 0},  // DIFF/index/distinct
                 {0x06f6ff9c8f7c7246ULL, 0, 0},  // UNI(R)/paper/df
                 {0x06f6ff9c8f7c7246ULL, 0, 0},  // UNI(R)/paper/distinct
                 {0x06f6ff9c8f7c7246ULL, 0, 0},  // UNI(R)/weight-desc/df
                 {0x06f6ff9c8f7c7246ULL, 0, 0},  // UNI(R)/weight-desc/distinct
                 {0x06f6ff9c8f7c7246ULL, 0, 0},  // UNI(R)/index/df
                 {0x06f6ff9c8f7c7246ULL, 0, 0},  // UNI(R)/index/distinct
                 {0xce76721d852fc4b6ULL, 0, 0},  // UNI(S)/paper/df
                 {0xce76721d852fc4b6ULL, 0, 0},  // UNI(S)/paper/distinct
                 {0xce76721d852fc4b6ULL, 0, 0},  // UNI(S)/weight-desc/df
                 {0xce76721d852fc4b6ULL, 0, 0},  // UNI(S)/weight-desc/distinct
                 {0xce76721d852fc4b6ULL, 0, 0},  // UNI(S)/index/df
                 {0xce76721d852fc4b6ULL, 0, 0},  // UNI(S)/index/distinct
                },
                0xb5c0aa3f32e957a1ULL});
}

TEST(AssignmentGoldenTest, OneColumnGridHasPairsButNoQuartets) {
  ExpectGolden({{"column", Rect{0, 0, 0.45, 500}, 1, 1000, 6000, 4000, 0.5,
                 false},
                {
                 {0x66d81085a9fe1c20ULL, 0, 0},  // LPiB/paper/df
                 {0x66d81085a9fe1c20ULL, 0, 0},  // LPiB/paper/distinct
                 {0x66d81085a9fe1c20ULL, 0, 0},  // LPiB/weight-desc/df
                 {0x66d81085a9fe1c20ULL, 0, 0},  // LPiB/weight-desc/distinct
                 {0x66d81085a9fe1c20ULL, 0, 0},  // LPiB/index/df
                 {0x66d81085a9fe1c20ULL, 0, 0},  // LPiB/index/distinct
                 {0x16965bd0236c3aa7ULL, 0, 0},  // DIFF/paper/df
                 {0x16965bd0236c3aa7ULL, 0, 0},  // DIFF/paper/distinct
                 {0x16965bd0236c3aa7ULL, 0, 0},  // DIFF/weight-desc/df
                 {0x16965bd0236c3aa7ULL, 0, 0},  // DIFF/weight-desc/distinct
                 {0x16965bd0236c3aa7ULL, 0, 0},  // DIFF/index/df
                 {0x16965bd0236c3aa7ULL, 0, 0},  // DIFF/index/distinct
                 {0x41ac886b3b7355c2ULL, 0, 0},  // UNI(R)/paper/df
                 {0x41ac886b3b7355c2ULL, 0, 0},  // UNI(R)/paper/distinct
                 {0x41ac886b3b7355c2ULL, 0, 0},  // UNI(R)/weight-desc/df
                 {0x41ac886b3b7355c2ULL, 0, 0},  // UNI(R)/weight-desc/distinct
                 {0x41ac886b3b7355c2ULL, 0, 0},  // UNI(R)/index/df
                 {0x41ac886b3b7355c2ULL, 0, 0},  // UNI(R)/index/distinct
                 {0x1d5d7e67b92229b6ULL, 0, 0},  // UNI(S)/paper/df
                 {0x1d5d7e67b92229b6ULL, 0, 0},  // UNI(S)/paper/distinct
                 {0x1d5d7e67b92229b6ULL, 0, 0},  // UNI(S)/weight-desc/df
                 {0x1d5d7e67b92229b6ULL, 0, 0},  // UNI(S)/weight-desc/distinct
                 {0x1d5d7e67b92229b6ULL, 0, 0},  // UNI(S)/index/df
                 {0x1d5d7e67b92229b6ULL, 0, 0},  // UNI(S)/index/distinct
                },
                0x218c3a3f8bc399c3ULL});
}

TEST(AssignmentGoldenTest, OneRowGridHasPairsButNoQuartets) {
  ExpectGolden({{"row", Rect{0, 0, 500, 0.45}, 1000, 1, 4000, 6000, 0.5,
                 false},
                {
                 {0x812a386859ad71a3ULL, 0, 0},  // LPiB/paper/df
                 {0x812a386859ad71a3ULL, 0, 0},  // LPiB/paper/distinct
                 {0x812a386859ad71a3ULL, 0, 0},  // LPiB/weight-desc/df
                 {0x812a386859ad71a3ULL, 0, 0},  // LPiB/weight-desc/distinct
                 {0x812a386859ad71a3ULL, 0, 0},  // LPiB/index/df
                 {0x812a386859ad71a3ULL, 0, 0},  // LPiB/index/distinct
                 {0x542ce7f7f8b89de6ULL, 0, 0},  // DIFF/paper/df
                 {0x542ce7f7f8b89de6ULL, 0, 0},  // DIFF/paper/distinct
                 {0x542ce7f7f8b89de6ULL, 0, 0},  // DIFF/weight-desc/df
                 {0x542ce7f7f8b89de6ULL, 0, 0},  // DIFF/weight-desc/distinct
                 {0x542ce7f7f8b89de6ULL, 0, 0},  // DIFF/index/df
                 {0x542ce7f7f8b89de6ULL, 0, 0},  // DIFF/index/distinct
                 {0x296ae41eb5e17e92ULL, 0, 0},  // UNI(R)/paper/df
                 {0x296ae41eb5e17e92ULL, 0, 0},  // UNI(R)/paper/distinct
                 {0x296ae41eb5e17e92ULL, 0, 0},  // UNI(R)/weight-desc/df
                 {0x296ae41eb5e17e92ULL, 0, 0},  // UNI(R)/weight-desc/distinct
                 {0x296ae41eb5e17e92ULL, 0, 0},  // UNI(R)/index/df
                 {0x296ae41eb5e17e92ULL, 0, 0},  // UNI(R)/index/distinct
                 {0xfad6ef89c92c5367ULL, 0, 0},  // UNI(S)/paper/df
                 {0xfad6ef89c92c5367ULL, 0, 0},  // UNI(S)/paper/distinct
                 {0xfad6ef89c92c5367ULL, 0, 0},  // UNI(S)/weight-desc/df
                 {0xfad6ef89c92c5367ULL, 0, 0},  // UNI(S)/weight-desc/distinct
                 {0xfad6ef89c92c5367ULL, 0, 0},  // UNI(S)/index/df
                 {0xfad6ef89c92c5367ULL, 0, 0},  // UNI(S)/index/distinct
                },
                0x6815a8dd06686e65ULL});
}

}  // namespace
}  // namespace pasjoin::core
