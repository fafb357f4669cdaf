// Copyright 2026 The pasjoin Authors.
//
// Deadlines and cooperative cancellation: runs the same adaptive join three
// ways - once with a generous deadline that is met, once with an impossible
// 50 ms budget that is cut short mid-flight, and once cancelled from another
// thread like a ctrl-c handler would. Demonstrates Deadline::AfterSeconds,
// CancellationSource/CancellationToken, the kDeadlineExceeded/kCancelled
// status codes, and the zero-partial-results guarantee
// (docs/CANCELLATION.md).
//
// Build & run:   ./build/examples/deadline_join
#include <cstdio>
#include <thread>
#include <vector>

#include "core/adaptive_join.h"
#include "datagen/generators.h"

namespace {

pasjoin::core::AdaptiveJoinOptions BaseOptions() {
  pasjoin::core::AdaptiveJoinOptions options;
  options.eps = 0.12;
  options.policy = pasjoin::agreements::Policy::kLPiB;
  options.workers = 8;
  options.collect_results = true;
  return options;
}

}  // namespace

int main() {
  using namespace pasjoin;

  const Dataset r =
      datagen::MakePaperDataset(datagen::PaperDataset::kS1, 200000);
  const Dataset s =
      datagen::MakePaperDataset(datagen::PaperDataset::kS2, 200000);

  // --- 1. a deadline that is met --------------------------------------------
  // The watchdog thread samples the deadline; a run that finishes in time
  // reports how much budget was left in metrics.deadline_slack_seconds.
  {
    core::AdaptiveJoinOptions options = BaseOptions();
    options.deadline = Deadline::AfterSeconds(300.0);
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
    if (!run.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    std::printf("relaxed deadline: %zu pairs, %.1fs of budget left\n",
                run.value().pairs.size(),
                run.value().metrics.deadline_slack_seconds);
  }

  // --- 2. an impossible deadline --------------------------------------------
  // 50 ms is not enough for 200k x 200k. The watchdog cancels the job, every
  // poll point (drivers, task runners, kernels) backs out cooperatively, and
  // the join returns kDeadlineExceeded with NO partial results: a task
  // commits only its complete output, and a cancelled run never reaches the
  // publish step.
  {
    core::AdaptiveJoinOptions options = BaseOptions();
    options.deadline = Deadline::AfterSeconds(0.05);
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
    if (run.ok()) {
      std::printf("surprisingly fast machine: join beat the 50 ms budget\n");
    } else if (run.status().code() == StatusCode::kDeadlineExceeded) {
      std::printf("tight deadline:   cut short as expected - %s\n",
                  run.status().ToString().c_str());
    } else {
      std::fprintf(stderr, "unexpected status: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }

  // --- 3. external cancellation ---------------------------------------------
  // A CancellationSource plays the role of a signal handler: any thread may
  // call Cancel() and the running join unwinds at its next poll point. The
  // first Cancel wins; its code and reason surface verbatim in the Status.
  {
    core::AdaptiveJoinOptions options = BaseOptions();
    CancellationSource source;
    options.cancel = source.token();
    std::thread interrupter([&source] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      source.Cancel(StatusCode::kCancelled, "user pressed ctrl-c");
    });
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
    interrupter.join();
    if (run.ok()) {
      std::printf("fast machine:     join finished before the cancel\n");
    } else if (run.status().code() == StatusCode::kCancelled) {
      std::printf("external cancel:  %s\n", run.status().ToString().c_str());
    } else {
      std::fprintf(stderr, "unexpected status: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }

  return 0;
}
