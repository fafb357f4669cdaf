// Copyright 2026 The pasjoin Authors.
//
// Traced join: run the adaptive-replication join with the execution tracer
// attached and export a Chrome trace-event file (docs/OBSERVABILITY.md).
//
//   1. generate two clustered point sets;
//   2. attach an obs::TraceRecorder and run AdaptiveDistanceJoin;
//   3. write the trace JSON (load it at https://ui.perfetto.dev or
//      chrome://tracing) and print a span-count summary.
//
// Build & run:   ./build/examples/traced_join [trace.json]
// Inspect:       tools/trace_summary.py trace.json --validate
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/adaptive_join.h"
#include "datagen/generators.h"

int main(int argc, char** argv) {
  using namespace pasjoin;

  const std::string trace_path = argc > 1 ? argv[1] : "trace.json";

  const Dataset r = datagen::MakePaperDataset(datagen::PaperDataset::kS1, 60000);
  const Dataset s = datagen::MakePaperDataset(datagen::PaperDataset::kS2, 60000);

  obs::TraceRecorder recorder;

  core::AdaptiveJoinOptions options;
  options.eps = 0.12;
  options.policy = agreements::Policy::kLPiB;
  options.workers = 8;
  options.collect_results = false;
  options.trace = &recorder;

  const Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
  if (!run.ok()) {
    std::fprintf(stderr, "join failed: %s\n", run.status().ToString().c_str());
    return 1;
  }

  const exec::JobMetrics& m = run.value().metrics;
  std::printf("%s\n", m.ToString().c_str());

  // Per-span-name counts, straight from the recorder (the JSON carries the
  // same events plus the job's exported metrics).
  std::map<std::string, size_t> span_counts;
  const std::vector<obs::TraceEvent> events = recorder.Snapshot();
  for (const obs::TraceEvent& event : events) {
    ++span_counts[event.name];
  }
  std::printf("recorded %zu events on %zu threads:\n", events.size(),
              recorder.thread_count());
  for (const auto& [name, count] : span_counts) {
    std::printf("  %-24s %zu\n", name.c_str(), count);
  }
  if (recorder.dropped_events() > 0) {
    std::fprintf(stderr, "WARNING: %llu events dropped\n",
                 static_cast<unsigned long long>(recorder.dropped_events()));
  }

  const Status st = recorder.WriteJson(trace_path);
  if (!st.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("trace written to %s (load in Perfetto, or run "
              "tools/trace_summary.py %s --validate)\n",
              trace_path.c_str(), trace_path.c_str());
  return 0;
}
