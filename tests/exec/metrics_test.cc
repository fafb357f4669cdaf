// Copyright 2026 The pasjoin Authors.
#include "exec/metrics.h"

#include <string>

#include <gtest/gtest.h>

#include "exec/engine_test_util.h"
#include "obs/trace_recorder.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::ExportedValue;

TEST(JobMetricsTest, Totals) {
  JobMetrics m;
  m.replicated_r = 10;
  m.replicated_s = 5;
  EXPECT_EQ(m.ReplicatedTotal(), 15u);
  m.construction_seconds = 1.5;
  m.join_seconds = 2.0;
  m.dedup_seconds = 0.5;
  EXPECT_DOUBLE_EQ(m.TotalSeconds(), 4.0);
}

TEST(JobMetricsTest, JoinImbalance) {
  JobMetrics m;
  EXPECT_DOUBLE_EQ(m.JoinImbalance(), 0.0);  // no workers recorded
  m.worker_busy_join = {1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(m.JoinImbalance(), 1.0);  // perfectly balanced
  m.worker_busy_join = {4.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(m.JoinImbalance(), 4.0);  // one hot worker
  m.worker_busy_join = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(m.JoinImbalance(), 0.0);  // zero-duration phase
}

TEST(JobMetricsTest, ToStringContainsKeyFields) {
  JobMetrics m;
  m.algorithm = "LPiB";
  m.replicated_r = 123;
  m.results = 42;
  m.workers = 8;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("LPiB"), std::string::npos);
  EXPECT_NE(s.find("repl=123"), std::string::npos);
  EXPECT_NE(s.find("res=42"), std::string::npos);
  EXPECT_NE(s.find("W=8"), std::string::npos);
}

TEST(JobMetricsTest, ToStringOmitsFaultFieldsOnCleanRuns) {
  JobMetrics m;
  m.algorithm = "LPiB";
  const std::string s = m.ToString();
  EXPECT_EQ(s.find("failed="), std::string::npos) << s;
  EXPECT_EQ(s.find("recovery="), std::string::npos) << s;
}

TEST(JobMetricsTest, ToStringReportsFaultFieldsWhenSet) {
  JobMetrics m;
  m.algorithm = "LPiB";
  m.tasks_failed = 3;
  m.tasks_retried = 2;
  m.tasks_speculated = 1;
  m.recovery_seconds = 0.25;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("failed=3"), std::string::npos) << s;
  EXPECT_NE(s.find("retried=2"), std::string::npos) << s;
  EXPECT_NE(s.find("spec=1"), std::string::npos) << s;
  EXPECT_NE(s.find("recovery=0.250s"), std::string::npos) << s;
}

TEST(JobMetricsTest, ToStringNeverTruncates) {
  // Regression: ToString used a fixed 640-byte snprintf buffer, so once the
  // kernel and fault fields accumulated the tail fields vanished silently.
  // Populate EVERY field with distinctive values — including strings long
  // enough to push the summary far past the old buffer — and require each
  // one to survive into the output.
  JobMetrics m;
  m.algorithm = std::string(400, 'A') + "-LPiB";  // alone near the old limit
  m.local_kernel = std::string(300, 'k') + "-sweep-soa";
  m.replicated_r = 111;
  m.replicated_s = 222;
  m.shuffled_tuples = 333444;
  m.joinable_tuples = 4321;
  m.shuffle_bytes = 555;
  m.shuffle_remote_bytes = 7 * 1024 * 1024;  // renders as remoteMB=7.00
  m.shuffle_block_bytes = 3 * 1024 * 1024;   // renders as blockMB=3.00
  m.candidates = 666777;
  m.results = 888999;
  m.partitions_joined = 55;
  m.workers = 16;
  m.construction_seconds = 1.125;
  m.join_seconds = 2.25;
  m.dedup_seconds = 0.5;
  m.wall_seconds = 9.875;
  m.kernel_sort_seconds = 0.111;
  m.kernel_sweep_seconds = 0.222;
  m.kernel_emit_seconds = 0.333;
  m.tasks_failed = 12;
  m.tasks_retried = 34;
  m.tasks_speculated = 56;
  m.recovery_seconds = 0.75;
  m.worker_busy_join = {1.0, 3.0};

  const std::string s = m.ToString();
  EXPECT_GT(s.size(), 640u);  // provably past the old truncation point
  for (const char* token :
       {"-LPiB", "repl=333", "shuffled=333444", "joinable=4321",
        "remoteMB=7.00", "blockMB=3.00",
        "cand=666777", "res=888999", "constr=1.125s", "join=2.250s",
        "dedup=0.500s", "total=3.875s", "wall=9.875s", "W=16",
        "imbalance=1.50", "-sweep-soa[sort=0.111s sweep=0.222s emit=0.333s]",
        "failed=12", "retried=34", "spec=56", "recovery=0.750s"}) {
    EXPECT_NE(s.find(token), std::string::npos)
        << "missing " << token << " in: " << s;
  }
}

TEST(JobMetricsTest, MeasuredTotals) {
  JobMetrics m;
  m.measured_construction_seconds = 0.5;
  m.measured_join_seconds = 1.0;
  m.measured_dedup_seconds = 0.25;
  EXPECT_DOUBLE_EQ(m.MeasuredTotalSeconds(), 1.75);
}

TEST(JobMetricsTest, ToStringReportsMeasuredBlockOnlyWhenExecuted) {
  JobMetrics m;
  m.algorithm = "LPiB";
  // physical_threads == 0 means the job never reached execution: no
  // measured block (and no misleading zeros).
  EXPECT_EQ(m.ToString().find("measured["), std::string::npos);

  m.physical_threads = 4;
  m.measured_construction_seconds = 0.125;
  m.measured_join_seconds = 0.25;
  m.measured_dedup_seconds = 0.5;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("threads=4"), std::string::npos) << s;
  EXPECT_NE(s.find("measured[constr=0.125s join=0.250s dedup=0.500s "
                   "total=0.875s]"),
            std::string::npos)
      << s;
}

TEST(JobMetricsTest, MeasuredGaugesArePublished) {
  obs::TraceExport exported;
  JobMetrics m;
  m.measured_construction_seconds = 0.5;
  m.measured_join_seconds = 1.5;
  m.measured_dedup_seconds = 0.25;
  m.physical_threads = 8;
  PublishMetrics(m, &exported);
  EXPECT_DOUBLE_EQ(
      ExportedValue(exported.gauges, "measured_construction_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(ExportedValue(exported.gauges, "measured_join_seconds"),
                   1.5);
  EXPECT_DOUBLE_EQ(ExportedValue(exported.gauges, "measured_dedup_seconds"),
                   0.25);
  EXPECT_DOUBLE_EQ(ExportedValue(exported.gauges, "measured_total_seconds"),
                   2.25);
  EXPECT_EQ(ExportedValue(exported.counters, "physical_threads"), 8u);
}

TEST(JobMetricsTest, SingleFieldLongerThanStackBufferSurvives) {
  // The append helper's heap fallback: one field > 256 bytes on its own.
  JobMetrics m;
  m.algorithm = "X";
  m.local_kernel = std::string(500, 'q');
  const std::string s = m.ToString();
  EXPECT_NE(s.find(m.local_kernel), std::string::npos);
  EXPECT_NE(s.find("emit=0.000s]"), std::string::npos);  // tail intact
}

TEST(CounterSnapshotTest, RegistryRoundTripsIntoJobMetrics) {
  // PublishMetrics exports every integer counter under its field name.
  JobMetrics m;
  m.replicated_r = 10;
  m.replicated_s = 20;
  m.shuffled_tuples = 30;
  m.joinable_tuples = 35;
  m.shuffle_bytes = 40;
  m.shuffle_remote_bytes = 50;
  m.shuffle_block_bytes = 55;
  m.candidates = 60;
  m.results = 70;
  m.partitions_joined = 80;
  m.tasks_failed = 1;
  m.tasks_retried = 2;
  m.tasks_speculated = 3;
  m.watchdog_fires = 4;
  m.construction_seconds = 1.5;
  m.join_seconds = 2.5;
  m.workers = 8;

  obs::TraceExport exported;
  PublishMetrics(m, &exported);
  const auto counter = [&exported](const char* name) {
    return ExportedValue(exported.counters, name);
  };
  const auto gauge = [&exported](const char* name) {
    return ExportedValue(exported.gauges, name);
  };
  EXPECT_EQ(counter("replicated_r"), 10u);
  EXPECT_EQ(counter("replicated_s"), 20u);
  EXPECT_EQ(counter("shuffled_tuples"), 30u);
  EXPECT_EQ(counter("joinable_tuples"), 35u);
  EXPECT_EQ(counter("shuffle_bytes"), 40u);
  EXPECT_EQ(counter("shuffle_remote_bytes"), 50u);
  EXPECT_EQ(counter("shuffle_block_bytes"), 55u);
  EXPECT_EQ(counter("candidates"), 60u);
  EXPECT_EQ(counter("results"), 70u);
  EXPECT_EQ(counter("partitions_joined"), 80u);
  EXPECT_EQ(counter("tasks_failed"), 1u);
  EXPECT_EQ(counter("tasks_retried"), 2u);
  EXPECT_EQ(counter("tasks_speculated"), 3u);
  EXPECT_EQ(counter("watchdog_fires"), 4u);
  EXPECT_DOUBLE_EQ(gauge("construction_seconds"), 1.5);
  EXPECT_DOUBLE_EQ(gauge("join_seconds"), 2.5);
  EXPECT_DOUBLE_EQ(gauge("total_seconds"), 4.0);
  EXPECT_EQ(counter("workers"), 8u);

  // A second publish (the driver's, after its fold) replaces the values
  // rather than appending to them.
  const size_t counters = exported.counters.size();
  const size_t gauges = exported.gauges.size();
  m.results = 71;
  PublishMetrics(m, &exported);
  EXPECT_EQ(counter("results"), 71u);
  EXPECT_EQ(exported.counters.size(), counters);
  EXPECT_EQ(exported.gauges.size(), gauges);
}

}  // namespace
}  // namespace pasjoin::exec
