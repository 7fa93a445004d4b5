#pragma once
// Traced replays: each engine entry point re-run from the layers' public
// functions with a span around every call into a layer, so the per-layer
// numbers come from the benchmark's own code. The replays reach the
// engines' optima by the same exactness arguments the engines document
// (lower-bound pruning only removes candidates strictly slower than an
// achieved time; reductions use search::better_result in candidate order),
// and the callers check that they do.

#include <cstdint>
#include <vector>

#include "search/codesign.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct PlanQuery {
  model::TransformerConfig mdl;
  hw::SystemConfig sys;
  search::SearchOptions opts;
};

struct SweepQuery {
  model::TransformerConfig mdl;
  std::vector<hw::SystemConfig> points;
  search::SweepOptions opts;
};

struct CodesignQuery {
  std::vector<model::TransformerConfig> shapes;
  std::vector<hw::SystemConfig> points;
  search::CodesignOptions opts;
};

struct ServeQuery {
  model::TransformerConfig mdl;
  hw::SystemConfig sys;
  search::ServePlanOptions opts;
};

/// find_optimal's deterministic branch-and-bound (single worker, rounds of
/// opts.round_size) through the scalar placement walk. Its work counters
/// match SearchStats exactly.
core::EvalResult replay_find_optimal(const PlanQuery& q, Recorder& rec,
                                     ReplayCounters& c);

/// Per-point optima of run_sweep through the batched placement kernel,
/// each point scanned cheapest-bound-first with a sequential incumbent
/// seeded by the previous point of the same GPU type.
std::vector<core::EvalResult> replay_sweep(const SweepQuery& q, Recorder& rec,
                                           ReplayCounters& c);

/// Per-point winners of run_codesign: shapes in family order, each
/// (shape, point) pair screened by core::shape_time_floor against the
/// point's cross-shape incumbent, surviving pairs scanned like replay_sweep.
std::vector<search::CodesignResult::Winner> replay_codesign(
    const CodesignQuery& q, Recorder& rec, ReplayCounters& c);

/// run_serve_plan's grid and Pareto front.
search::ServePlanResult replay_serve_plan(const ServeQuery& q, Recorder& rec,
                                          ReplayCounters& c);

}  // namespace perfbench
