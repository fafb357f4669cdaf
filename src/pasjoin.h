// Copyright 2026 The pasjoin Authors.
//
// Umbrella header: the full public API of pasjoin, the parallel spatial join
// library with adaptive replication (EDBT 2025 reproduction).
//
// Typical use:
//
//   #include "pasjoin.h"
//
//   pasjoin::core::AdaptiveJoinOptions options;
//   options.eps = 0.12;
//   auto run = pasjoin::core::AdaptiveDistanceJoin(r, s, options);
//   if (run.ok()) { ... run.value().metrics ... }
//
// Layering (lower layers never include higher ones):
//   common     - geometry, tuples, Status/Result, RNG, timing
//   obs        - execution tracing and the trace's metrics export
//   datagen    - synthetic data sets and dataset IO
//   grid       - the regular grid, replication areas, sample statistics
//   spatial    - local join algorithms, R-tree, quadtree
//   agreements - the graph of agreements (Sections 4-5 of the paper)
//   exec       - the data-parallel engine and metrics
//   extent     - eps-distance joins over polylines/polygons (future work)
//   core       - adaptive replication, the adaptive join, LPT, cost model
//   baselines  - PBSM UNI(R)/UNI(S)/eps-grid and the Sedona-like join
#ifndef PASJOIN_PASJOIN_H_
#define PASJOIN_PASJOIN_H_

#include "agreements/agreement_graph.h"   // IWYU pragma: export
#include "agreements/dot_export.h"        // IWYU pragma: export
#include "baselines/pbsm.h"               // IWYU pragma: export
#include "baselines/sedona_like.h"        // IWYU pragma: export
#include "common/cancellation.h"          // IWYU pragma: export
#include "common/geometry.h"              // IWYU pragma: export
#include "common/rng.h"                   // IWYU pragma: export
#include "common/small_vector.h"          // IWYU pragma: export
#include "common/status.h"                // IWYU pragma: export
#include "common/stopwatch.h"             // IWYU pragma: export
#include "common/str_append.h"            // IWYU pragma: export
#include "common/sync.h"                  // IWYU pragma: export
#include "common/tuple.h"                 // IWYU pragma: export
#include "core/adaptive_join.h"           // IWYU pragma: export
#include "core/cost_model.h"              // IWYU pragma: export
#include "core/driver.h"                  // IWYU pragma: export
#include "core/epsilon_advisor.h"         // IWYU pragma: export
#include "core/lpt_scheduler.h"           // IWYU pragma: export
#include "core/planning.h"                // IWYU pragma: export
#include "core/replication.h"             // IWYU pragma: export
#include "core/self_join.h"               // IWYU pragma: export
#include "datagen/generators.h"           // IWYU pragma: export
#include "datagen/io.h"                   // IWYU pragma: export
#include "datagen/summary.h"              // IWYU pragma: export
#include "exec/engine.h"                  // IWYU pragma: export
#include "exec/fault_injector.h"          // IWYU pragma: export
#include "exec/metrics.h"                 // IWYU pragma: export
#include "exec/shuffle.h"                 // IWYU pragma: export
#include "exec/steal_queue.h"             // IWYU pragma: export
#include "exec/thread_pool.h"             // IWYU pragma: export
#include "extent/extent_join.h"           // IWYU pragma: export
#include "extent/generators.h"            // IWYU pragma: export
#include "extent/geometry.h"              // IWYU pragma: export
#include "grid/grid.h"                    // IWYU pragma: export
#include "grid/stats.h"                   // IWYU pragma: export
#include "obs/trace_recorder.h"           // IWYU pragma: export
#include "spatial/local_join.h"           // IWYU pragma: export
#include "spatial/quadtree.h"             // IWYU pragma: export
#include "spatial/rtree.h"                // IWYU pragma: export
#include "spatial/sweep_kernel.h"         // IWYU pragma: export

#endif  // PASJOIN_PASJOIN_H_
