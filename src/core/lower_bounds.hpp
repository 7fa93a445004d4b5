#pragma once
// Cheap analytic lower bounds for the S3 configuration search.
//
// For a parallelization configuration these bound, WITHOUT building the op
// list (no build_layer call):
//   * time_floor   — a compute-only FLOP-time floor on the iteration time,
//                    valid for every NVS placement and every EvalOptions
//                    setting (overlap/offload/recompute only add time or
//                    move communication, never reduce the matmul FLOPs).
//   * memory_floor — a placement-independent floor on the busiest GPU's
//                    resident bytes, valid for every placement.
//
// Both are conservative: time_floor <= iteration() and memory_floor <=
// mem.total() for every evaluation of the configuration. The search uses
// them to reject configurations before the (much more expensive) op-list
// construction and placement scan run: a candidate whose time_floor already
// exceeds the incumbent's achieved iteration time cannot improve the
// optimum, and one whose memory_floor exceeds HBM capacity is infeasible
// under every placement.
//
// Construction of the floors (see docs/API.md "Search complexity & pruning"
// for when they are exact):
//   * Every matmul of m x n x k sharded across the tp = n1*n2 tensor-
//     parallel GPUs executes at least (2k - min(tp, k)) * m * n / tp FLOPs
//     on one GPU, whichever dimensions the strategy splits (splitting the
//     contraction dim k by s <= min(tp, k) gives (2k/s - 1) * mn/(tp/s) =
//     (2k - s) * mn / tp; splitting m or n keeps the (2k - 1) coefficient
//     and is larger still; replication only adds).
//   * The backward of a projection runs dgrad (contraction = the output
//     dim) and wgrad (contraction = the token dim) in ops::matmul; SUMMA
//     prices its backward as exactly 2x the forward-contraction form. The
//     cross-builder backward floor is the min of the two accountings —
//     roughly 2x forward, so fwd+bwd is ~3x the forward FLOPs.
//   * Attention is ops::fused_attention in every builder: two
//     (lq x eh x lkv) matmuls + the in-kernel softmax, with the head dim
//     never sharded (only heads/queries/batch split), backward priced at
//     2.5x forward — so the floor keeps the full (4*eh + 3)-per-head-logit
//     cost with no tp relaxation loss.
//   * Every builder runs LN x2, dropout x2 and residual x2 on the
//     (bl x e) stream plus the dense GeLU on (bl x f), with sharded
//     element counts summing to the unsharded totals; the roofline charges
//     at least their HBM traffic (5 element reads+writes fwd+bwd at FP16).
//   * 1F1B iteration time is at least (m + (np-1)/v) per-stage microbatch
//     times, and each of those is at least the stage's FLOP + vector time.
//   * Network floors walk the resolved hw::Topology: the pipeline handoff
//     pays at least the boundary-tensor wire time over the fabric's fastest
//     single link, and ZeRO-3's per-microbatch weight-gather/grad-scatter
//     at least comm::collective_time_floor — the algorithm-independent
//     ingress/bisection bound of the bottleneck level.
//   * Exposed TP collectives: every block pass runs the non-panel TP
//     collectives of Tables I/II/A2 at the volumes the builders emit —
//     1D/2D: the ln1 AllGather, out_proj ReduceScatter, ln2 AllGather and
//     fc2 ReduceScatter over TP1 (under MoE the fc2 ReduceScatter carries
//     top_k x the volume); SUMMA: the ln1/ln2 AllReduce and the out_proj
//     ReduceScatter over TP1; 2D/SUMMA without ring or linear attention:
//     the two K/V AllGathers over TP2. Each is priced with
//     comm::collective_time_floor, and the sum is scaled by
//     (1 - tp_overlap) x (2 passes, 3 with activation recompute) x m x
//     depth/np — the evaluator's tp_comm = (fwd + bwd) x m x layers over
//     the steady microbatches only, so the term stays disjoint from the
//     bubble, whose compute part the compute floor already covers.
//     Left out on purpose (floors only shrink): the SUMMA panel
//     broadcasts (their exposed share depends on the panel overlap), the
//     ring-attention K/V hops (overlapped the same way), the MoE
//     all-to-all (DP group, placement-dependent) and linear attention's
//     small state AllReduce; an AllReduce is counted at one pass (its
//     RS + AG halves are not both charged).

#include <cstdint>

#include "core/evaluator.hpp"
#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::core {

struct SearchBounds {
  /// Lower bound on iteration() [s]; <= every placement's evaluated time.
  double time_floor = 0;
  /// Lower bound on mem.total() [bytes]; placement-independent.
  double memory_floor = 0;
  /// The exposed-TP-collective share of time_floor [s]; <= every
  /// placement's TimeBreakdown::tp_comm on its own.
  double tp_comm_floor = 0;
};

/// Bounds for `cfg` on `sys`. `cfg` must satisfy the divisibility
/// constraints (invalid_reason() == nullopt with unit placement); the
/// placement fields are ignored. `opts` is consulted for the extensions
/// that change the floors (activation offload, recompute, tp_overlap).
SearchBounds search_bounds(const model::TransformerConfig& mdl,
                           const hw::SystemConfig& sys,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const EvalOptions& opts = {});

/// Same bounds, with the fabric resolved by the caller. The convenience
/// overload above calls sys.resolved_fabric() internally; a screen that
/// bounds many candidates against one system should resolve once and use
/// this form (bitwise-identical results — the fabric is the same object
/// either way).
SearchBounds search_bounds(const model::TransformerConfig& mdl,
                           const hw::SystemConfig& sys,
                           const hw::Topology& fabric,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const EvalOptions& opts = {});

/// The fabric-independent prefix of search_bounds: the compute/optimizer
/// time floor, the memory floor, and the intermediates and collective
/// volumes the network terms reuse. Valid for every fabric on a system with
/// the same GPU roofline — the sweep computes it once per chain and
/// re-finishes it per point.
struct SearchBoundsBase {
  double compute_floor = 0;      ///< time_floor before the network terms
  double memory_floor = 0;
  double stage_params_floor = 0; ///< reused by the ZeRO-3 collective floor
  double bl = 0;                 ///< local batch x seq_len (P2P volume)
  double tp = 0;                 ///< n1 * n2 (P2P volume divisor)
  /// Exposed-TP-collective inputs (fabric-independent; see header): the
  /// volume of each of the three TP1 collectives per block pass besides
  /// fc2's, the fc2 ReduceScatter volume (0 under SUMMA), the volume of
  /// each of the two K/V AllGathers over TP2 (0 when not emitted), and
  /// (1 - tp_overlap) x passes x m x layers.
  double tp1_bytes = 0;
  double tp1_fc2_bytes = 0;
  double tp2_kv_bytes = 0;
  double tp_comm_scale = 0;
};

SearchBoundsBase search_bounds_base(const model::TransformerConfig& mdl,
                                    const hw::SystemConfig& sys,
                                    const parallel::ParallelConfig& cfg,
                                    std::int64_t global_batch,
                                    const EvalOptions& opts = {});

/// Add the fabric-dependent network floors to a base. search_bounds(...)
/// is exactly finish_search_bounds(search_bounds_base(...), ...) — the
/// split sits on a statement boundary of the original accumulation, so the
/// composed result is bitwise-identical, whichever path computed it.
SearchBounds finish_search_bounds(const SearchBoundsBase& base,
                                  const model::TransformerConfig& mdl,
                                  const hw::Topology& fabric,
                                  const parallel::ParallelConfig& cfg);

/// Architecture-level time floor: a compute-only lower bound on iteration()
/// over EVERY valid parallelization and placement of `mdl` on `n_gpus`
/// GPUs, from the shape and the system's tensor-core peak alone — no
/// candidate enumeration, no per-configuration work. The co-design search
/// (search/codesign.hpp) screens whole shapes against the cross-shape
/// incumbent with it before enumerating their candidate spaces.
///
/// Construction: every per-configuration compute floor above is a sum of
/// terms of the form
///   micros * layers * coeff * (2k - min(tp, k)) * bl / tp
/// with micros >= m, layers = d/np, bl = b*l/(nd*m) and tp*np*nd = n. The
/// m / np / nd factors collapse to b*l*d*(2k - min(tp, k))/n, which is
/// non-increasing in tp <= n, so replacing tp by n bounds every candidate.
/// The wgrad terms contract the token dimension, whose total split count
/// across DP ranks, microbatches and sequence shards is at most
/// min(b*n, b*l); the fused-attention and vector-op terms collapse with no
/// relaxation loss at all (their per-element cost is sharding-invariant).
/// The Adam, memory and network terms are dropped (floors only shrink), so
/// shape_time_floor <= search_bounds(...).time_floor <= iteration() for
/// every candidate — the property that keeps shape-level pruning exact.
/// Iso-parameter shapes differ mainly through the fused-attention term
/// (~e*d*l*lkv head-logit FLOPs, growing with e*d at fixed budget) and the
/// vector-op HBM term (~(6e + f)*d bytes/token), which is what separates
/// narrow-deep from wide-shallow shapes; architecture variants whose floor
/// drops whole terms (e.g. MoE's strategy-dependent MLP) separate further.
double shape_time_floor(const model::TransformerConfig& mdl,
                        const hw::SystemConfig& sys, std::int64_t n_gpus,
                        std::int64_t global_batch);

/// Decode-phase floor on the per-token round time (ExecutionPhase::kDecode):
/// every decode round re-reads each stage's resident weight bytes at least
/// once and streams the whole resident K/V cache exactly once, so
///   TPOT >= (stage_weight_bytes + stage_kv_bytes) / hbm_bandwidth.
/// The modeled round (np group passes through the stage) reads the weights
/// np times, so decode_round_time >= this floor for every configuration —
/// asserted over the serve grid by tests/test_serving.cpp. FLOP and
/// collective terms are dropped (floors only shrink).
double decode_round_floor(Bytes stage_weight_bytes, Bytes stage_kv_bytes,
                          const hw::GpuSpec& gpu);

}  // namespace tfpe::core
