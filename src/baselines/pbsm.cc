// Copyright 2026 The pasjoin Authors.
#include "baselines/pbsm.h"

namespace pasjoin::baselines {

const char* PbsmVariantName(PbsmVariant v) {
  switch (v) {
    case PbsmVariant::kUniR:
      return "UNI(R)";
    case PbsmVariant::kUniS:
      return "UNI(S)";
    case PbsmVariant::kEpsGrid:
      return "eps-grid";
  }
  return "?";
}

Result<exec::JoinRun> PbsmDistanceJoin(const Dataset& r, const Dataset& s,
                                       PbsmVariant variant,
                                       const PbsmOptions& options) {
  core::UniformGridJoin join;
  join.algorithm = PbsmVariantName(variant);
  join.resolution_factor =
      variant == PbsmVariant::kEpsGrid ? 1.0 : options.resolution_factor;
  // UNI(R) and UNI(S) name their replicated side; the eps-grid variant
  // replicates the data set with fewer objects.
  const bool s_smaller = s.tuples.size() < r.tuples.size();
  join.replicated = variant == PbsmVariant::kUniS ||
                            (variant == PbsmVariant::kEpsGrid && s_smaller)
                        ? Side::kS
                        : Side::kR;
  return core::UniformGridDistanceJoin(r, s, join, options);
}

}  // namespace pasjoin::baselines
