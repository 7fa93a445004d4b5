#pragma once
// Iteration-time evaluator (paper §III S2): converts the S1 counts of a
// parallelization configuration into a per-training-iteration time and
// memory breakdown on a given system.
//
//  * Compute: roofline max(flops/peak, bytes/bw) per op, tensor-core rate
//    for matmuls (plus the FLOPs-latency term t_sf), vector rate otherwise.
//    Each op's time is attributed to "compute" or "memory access" by its
//    dominant roofline side.
//  * TP communication: exposed (not overlapped), except SUMMA panel
//    broadcasts which overlap with panel matmuls beyond a prologue.
//  * Pipeline: 1F1B — iteration = (m + np - 1)(tf + tb) + exposed P2P.
//  * DP communication: gradient ReduceScatter overlapped with the last
//    microbatch's backward, weight AllGather with the first forward; only
//    the excess is exposed. In 2D TP the group is nd x n2.
//  * Optimizer: distributed Adam update, HBM-bandwidth bound.

#include <cstdint>
#include <string>

#include "hw/system.hpp"
#include "memory/memory_model.hpp"
#include "model/transformer.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::core {

struct TimeBreakdown {
  double compute = 0;     ///< FLOP-bound op time (incl. t_sf), all microbatches.
  double memory = 0;      ///< HBM-bound op time.
  double tp_comm = 0;     ///< Exposed tensor-parallel collective time.
  double pp_comm = 0;     ///< Pipeline point-to-point time.
  double dp_comm = 0;     ///< Exposed data-parallel gradient/weight time.
  double bubble = 0;      ///< Pipeline idle time.
  double optimizer = 0;   ///< Distributed Adam update.

  double total() const {
    return compute + memory + tp_comm + pp_comm + dp_comm + bubble + optimizer;
  }
};

/// Optional modeling extensions beyond the paper's baseline (its §V
/// "Limitations" list). All default to the paper's assumptions.
struct EvalOptions {
  /// Fraction of non-SUMMA tensor-parallel collective time hidden behind
  /// compute ("more lower-level opportunities for TP communications to be
  /// overlapped"). 0 = fully exposed (paper baseline).
  double tp_overlap = 0.0;

  /// Fraction of stored activations offloaded to host memory over the
  /// system's host link; frees HBM but pays write+read-back traffic per
  /// microbatch ("offloading to the CPU ... may be very useful for large
  /// sequences"). 0 = no offload (paper baseline).
  double activation_offload = 0.0;

  /// Full activation checkpointing: keep only each block's input and re-run
  /// the forward pass inside the backward pass (Megatron-style selective
  /// recompute of whole layers). Shrinks activation memory to the block
  /// boundaries at ~one extra forward of compute per layer. The paper's
  /// baseline only recomputes inside FlashAttention.
  bool activation_recompute = false;

  /// Throws std::invalid_argument unless tp_overlap and activation_offload
  /// are finite fractions in [0, 1] (outside it the model returns negative
  /// or meaningless times).
  void validate() const;
};

struct EvalResult {
  bool feasible = false;
  std::string reason;  ///< Why infeasible (empty when feasible).

  parallel::ParallelConfig cfg;
  TimeBreakdown time;           ///< Absolute seconds per iteration.
  memory::MemoryBreakdown mem;  ///< Bytes resident on the busiest GPU.

  double t_fwd_micro = 0;  ///< One microbatch forward through one stage.
  double t_bwd_micro = 0;

  double iteration() const { return time.total(); }
};

/// Evaluate one configuration end to end. `global_batch` is the paper's b.
EvalResult evaluate(const model::TransformerConfig& mdl,
                    const hw::SystemConfig& sys,
                    const parallel::ParallelConfig& cfg,
                    std::int64_t global_batch, const EvalOptions& opts = {});

/// Same, reusing a pre-built LayerCost (must match cfg's parallel dims and
/// local microbatch). Used by the search to amortize op-list construction
/// across NVS-placement candidates.
EvalResult evaluate_with_layer(const model::TransformerConfig& mdl,
                               const hw::SystemConfig& sys,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t global_batch,
                               const parallel::LayerCost& layer,
                               const EvalOptions& opts = {});

/// Roofline time of a single op's forward (or backward) pass, excluding
/// communication. Exposed for unit tests.
struct OpTime {
  Seconds compute;  ///< Attributed FLOP-bound time.
  Seconds memory;   ///< Attributed memory-bound time.
  Seconds comm;     ///< Exposed communication time.
};
OpTime op_time(const ops::Op& op, bool backward, const hw::SystemConfig& sys,
               const parallel::ParallelConfig& cfg);

/// Same, against an already-resolved fabric (avoids re-deriving the
/// topology per op). The 4-argument overload resolves sys.resolved_fabric()
/// and delegates here.
OpTime op_time(const ops::Op& op, bool backward, const hw::SystemConfig& sys,
               const hw::Topology& fabric, const parallel::ParallelConfig& cfg);

}  // namespace tfpe::core
