#include "replay.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>

#include "comm/collective_algorithm.hpp"
#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/inference_estimate.hpp"
#include "core/lower_bounds.hpp"
#include "parallel/layer_builder.hpp"
#include "search/enumerate.hpp"
#include "search/search.hpp"
#include "search/search_cache.hpp"

namespace perfbench {

namespace {

using tfpe::Bytes;
namespace comm = tfpe::comm;
using Placements = std::vector<std::array<std::int64_t, 4>>;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::array<std::int64_t, 7> layer_memo_key(const model::TransformerConfig& mdl,
                                           const parallel::ParallelConfig& cfg,
                                           std::int64_t b) {
  const search::LayerKey k = search::layer_key(mdl, cfg, b);
  return {static_cast<std::int64_t>(k.strategy), k.n1, k.n2, k.nb,
          k.local_microbatch, k.moe_ep, k.ring_attention ? 1 : 0};
}

std::array<std::int64_t, 9> signature_memo_key(
    const parallel::ParallelConfig& cfg) {
  const search::SignatureKey k = search::signature_key(cfg);
  return {static_cast<std::int64_t>(k.strategy), k.n1, k.n2, k.np, k.nd, k.m,
          k.nb, k.ring_attention ? 1 : 0, static_cast<std::int64_t>(k.zero)};
}

void apply_placement(parallel::ParallelConfig& cfg,
                     const std::array<std::int64_t, 4>& pl) {
  cfg.nvs1 = pl[0];
  cfg.nvs2 = pl[1];
  cfg.nvsp = pl[2];
  cfg.nvsd = pl[3];
}

comm::GroupPlacement group_placement(const parallel::ParallelConfig& cfg,
                                     std::size_t group) {
  switch (group) {
    case 0: return {cfg.n1, cfg.nvs1};
    case 1: return {cfg.n2, cfg.nvs2};
    case 2: return {cfg.nd, cfg.nvsd};
    default: return {cfg.np, cfg.nvsp};
  }
}

/// Compiled signatures of one model at one global batch, built through
/// parallel::build_layer and core::compile_signature and memoized on the
/// same keys as search::LayerCostCache / SignatureCache, so the compile
/// and build counts are the engine's.
class Compiler {
 public:
  Compiler(const model::TransformerConfig& mdl, std::int64_t b,
           const core::EvalOptions& eval, Recorder& rec, ReplayCounters& c)
      : mdl_(mdl), b_(b), eval_(eval), rec_(rec), c_(c) {}

  const core::CostSignature& signature(const parallel::ParallelConfig& cfg) {
    auto& slot = sigs_[signature_memo_key(cfg)];
    if (slot) return *slot;
    auto& layer = layers_[layer_memo_key(mdl_, cfg, b_)];
    if (!layer) {
      Span s(rec_, Layer::kBuildLayer);
      layer = std::make_unique<parallel::LayerCost>(
          parallel::build_layer(mdl_, cfg, cfg.local_microbatch(b_)));
      ++c_.build_layer_calls;
    }
    Span s(rec_, Layer::kCompile);
    slot = std::make_unique<core::CostSignature>(
        core::compile_signature(mdl_, cfg, b_, *layer, eval_));
    ++c_.signature_compiles;
    return *slot;
  }

  const core::BatchedSignature& lowered(const parallel::ParallelConfig& cfg) {
    auto& slot = lowered_[signature_memo_key(cfg)];
    if (!slot) {
      const core::CostSignature& sig = signature(cfg);
      Span s(rec_, Layer::kLower);
      slot = std::make_unique<core::BatchedSignature>(core::lower_batched(sig));
    }
    return *slot;
  }

  const Placements& placements(const parallel::ParallelConfig& cfg,
                               std::int64_t nvs_domain) {
    auto& slot = placements_[{cfg.n1, cfg.n2, cfg.np, cfg.nd, nvs_domain}];
    if (!slot) {
      Span s(rec_, Layer::kEnumerate);
      slot = std::make_unique<Placements>(
          search::enumerate_placements(cfg, nvs_domain));
    }
    return *slot;
  }

 private:
  const model::TransformerConfig& mdl_;
  std::int64_t b_;
  const core::EvalOptions& eval_;
  Recorder& rec_;
  ReplayCounters& c_;
  std::map<std::array<std::int64_t, 7>, std::unique_ptr<parallel::LayerCost>>
      layers_;
  std::map<std::array<std::int64_t, 9>, std::unique_ptr<core::CostSignature>>
      sigs_;
  std::map<std::array<std::int64_t, 9>,
           std::unique_ptr<core::BatchedSignature>>
      lowered_;
  std::map<std::array<std::int64_t, 5>, std::unique_ptr<Placements>>
      placements_;
};

/// One system's candidate scan through the batched kernel, shared by the
/// sweep and co-design replays. Signatures, lowerings and placement sets
/// are hardware-invariant and live for the whole scanner; bound timings
/// and fabric-free bound prefixes are kept per GPU type.
class PointScanner {
 public:
  PointScanner(const model::TransformerConfig& mdl,
               const search::SearchOptions& opts,
               std::vector<parallel::ParallelConfig> configs, Recorder& rec,
               ReplayCounters& c)
      : mdl_(mdl),
        opts_(opts),
        configs_(std::move(configs)),
        compiler_(mdl, opts.global_batch, opts.eval, rec, c),
        rec_(rec),
        c_(c) {}

  std::size_t size() const { return configs_.size(); }

  /// Optimum at `sys`; `seed` (a candidate index, or size() for none) is
  /// scanned first to seed the incumbent. Returns the winner's index in
  /// `best_index` (size() when nothing is feasible).
  core::EvalResult scan(const hw::SystemConfig& sys, std::size_t seed,
                        std::size_t& best_index) {
    const std::int64_t b = opts_.global_batch;
    const std::size_t n = configs_.size();
    fabric_ = sys.resolved_fabric();
    const hw::Topology& fabric = fabric_;
    {
      Span s(rec_, Layer::kPrice);
      pricer_.rebind(fabric_);
    }
    auto& gpu_state = per_gpu_[sys.gpu.name];
    gpu_state.resize(n);

    lb_.assign(n, kInf);
    order_.clear();
    {
      Span s(rec_, Layer::kBounds);
      std::uint64_t calls = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const parallel::ParallelConfig& cfg = configs_[i];
        if (cfg.invalid_reason(mdl_, sys, b)) continue;
        PerGpu& g = gpu_state[i];
        if (!g.lb_ready) {
          g.lb_base = core::search_bounds_base(mdl_, sys, cfg, b, opts_.eval);
          g.lb_ready = true;
          ++calls;
        }
        const core::SearchBounds bd =
            core::finish_search_bounds(g.lb_base, mdl_, fabric, cfg);
        ++calls;
        if (Bytes(bd.memory_floor) > sys.gpu.hbm_capacity) {
          ++c_.memory_pruned;
          continue;
        }
        lb_[i] = bd.time_floor;
        order_.push_back(i);
      }
      s.set_calls(calls);
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t c) {
      return lb_[a] != lb_[c] ? lb_[a] < lb_[c] : a < c;
    });

    double incumbent = kInf;
    results_.clear();
    auto visit = [&](std::size_t i) {
      core::EvalResult r = evaluate(sys, i, gpu_state[i]);
      if (r.feasible) {
        incumbent = std::min(incumbent, r.iteration());
        results_.emplace_back(i, std::move(r));
      }
    };
    const bool seeded = seed < n && lb_[seed] < kInf;
    if (seeded) visit(seed);
    for (std::size_t j = 0; j < order_.size(); ++j) {
      const std::size_t i = order_[j];
      if (lb_[i] > incumbent) {
        c_.bound_pruned += order_.size() - j;
        break;
      }
      if (seeded && i == seed) continue;
      visit(i);
    }

    Span s(rec_, Layer::kReduce, results_.size());
    std::sort(results_.begin(), results_.end(),
              [](const auto& a, const auto& c) { return a.first < c.first; });
    core::EvalResult best;
    best_index = n;
    for (auto& [i, r] : results_) {
      if (search::better_result(r, best)) {
        best = r;
        best_index = i;
      }
    }
    return best;
  }

 private:
  struct PerGpu {
    core::SearchBoundsBase lb_base;
    std::unique_ptr<core::SystemTiming> bound;
    bool lb_ready = false;
  };

  core::EvalResult evaluate(const hw::SystemConfig& sys, std::size_t i,
                            PerGpu& g) {
    parallel::ParallelConfig cfg = configs_[i];
    core::EvalResult res;
    res.cfg = cfg;
    const core::CostSignature& sig = compiler_.signature(cfg);
    if (sig.mem.total() > sys.gpu.hbm_capacity) {
      ++c_.evaluated;
      return res;
    }
    const core::BatchedSignature& bat = compiler_.lowered(cfg);
    if (!g.bound) {
      Span s(rec_, Layer::kBind);
      g.bound = std::make_unique<core::SystemTiming>(core::bind_system_batched(
          sig, bat, sys, opts_.eval, /*capture_fabric=*/false));
    }
    const Placements& pls = compiler_.placements(cfg, sys.nvs_domain);
    if (pls.empty()) return res;
    {
      // Walk each (group, nvs) pair the kernel will price into the
      // pricer's placement memo, so the walks show as comm.price; the
      // per-request price() calls stay inside the kernel (core.time).
      Span s(rec_, Layer::kPrice);
      std::uint64_t calls = 0;
      for (std::size_t grp = 0; grp < 4; ++grp) {
        if (!(bat.comm_groups_mask & (1u << grp))) continue;
        for (const auto& pl : pls) {
          parallel::ParallelConfig placed = cfg;
          apply_placement(placed, pl);
          try {
            pricer_.place_ref(group_placement(placed, grp));
            ++calls;
          } catch (const std::exception&) {
            // The kernel rejects the same placement; nothing to warm.
          }
        }
      }
      s.set_calls(calls);
    }
    {
      Span s(rec_, Layer::kTime, pls.size());
      core::time_placements_batch(sig, bat, *g.bound, sys, cfg, pls,
                                  opts_.eval, timings_, &scratch_, &pricer_);
    }
    c_.evaluated += pls.size();
    c_.placements_timed += pls.size();
    std::size_t best = 0;
    double best_total = kInf;
    for (std::size_t k = 0; k < timings_.size(); ++k) {
      const double total = timings_[k].time.total();
      if (total < best_total) {
        best_total = total;
        best = k;
      }
    }
    apply_placement(cfg, pls[best]);
    res.cfg = cfg;
    res.time = timings_[best].time;
    res.t_fwd_micro = timings_[best].t_fwd_stage.value();
    res.t_bwd_micro = timings_[best].t_bwd_stage.value();
    res.mem = sig.mem;
    res.feasible = true;
    return res;
  }

  const model::TransformerConfig& mdl_;
  const search::SearchOptions& opts_;
  std::vector<parallel::ParallelConfig> configs_;
  Compiler compiler_;
  Recorder& rec_;
  ReplayCounters& c_;
  hw::Topology fabric_;  ///< the scanned point's; the pricer points at it
  comm::FabricPricer pricer_;
  std::map<std::string, std::vector<PerGpu>> per_gpu_;
  core::BatchScratch scratch_;
  std::vector<core::PlacementTiming> timings_;
  std::vector<double> lb_;
  std::vector<std::size_t> order_;
  std::vector<std::pair<std::size_t, core::EvalResult>> results_;
};

std::vector<parallel::ParallelConfig> enumerate(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const search::SearchOptions& opts, Recorder& rec) {
  Span s(rec, Layer::kEnumerate);
  return search::expand_candidates(mdl, sys, opts);
}

}  // namespace

core::EvalResult replay_find_optimal(const PlanQuery& q, Recorder& rec,
                                     ReplayCounters& c) {
  const model::TransformerConfig& mdl = q.mdl;
  const hw::SystemConfig& sys = q.sys;
  const search::SearchOptions& o = q.opts;
  const std::int64_t b = o.global_batch;
  const std::vector<parallel::ParallelConfig> configs =
      enumerate(mdl, sys, o, rec);
  const std::size_t n = configs.size();

  std::vector<double> lb(n, kInf);
  std::vector<std::size_t> order;
  {
    Span s(rec, Layer::kBounds);
    std::uint64_t calls = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (configs[i].invalid_reason(mdl, sys, b)) continue;
      const core::SearchBounds bd =
          core::search_bounds(mdl, sys, configs[i], b, o.eval);
      ++calls;
      if (Bytes(bd.memory_floor) > sys.gpu.hbm_capacity) {
        ++c.memory_pruned;
        continue;
      }
      lb[i] = bd.time_floor;
      order.push_back(i);
    }
    s.set_calls(calls);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t d) {
    return lb[a] != lb[d] ? lb[a] < lb[d] : a < d;
  });

  Compiler compiler(mdl, b, o.eval, rec, c);
  std::vector<core::EvalResult> results(n);
  double incumbent = kInf;

  // One candidate through the two-phase scalar path, mirroring
  // search::scan_placements_signature with stop_after_infeasible.
  auto evaluate = [&](std::size_t i) {
    parallel::ParallelConfig cfg = configs[i];
    const core::CostSignature& sig = compiler.signature(cfg);
    core::SystemTiming base;
    {
      Span s(rec, Layer::kBind);
      base = core::bind_system(sig, sys, o.eval);
    }
    const Placements& pls = compiler.placements(cfg, sys.nvs_domain);
    core::EvalResult r;
    if (pls.empty()) {
      r.cfg = cfg;
      r.reason = "no valid placement";
    } else {
      apply_placement(cfg, pls[0]);
      const bool invalid = cfg.invalid_reason(mdl, sys, b).has_value();
      if (invalid || sig.mem.total() > sys.gpu.hbm_capacity) {
        ++c.evaluated;
        Span s(rec, Layer::kTime);
        r = core::time_signature(sig, base, mdl, sys, cfg, b, o.eval);
      } else {
        std::size_t best = 0;
        double best_total = kInf;
        {
          Span s(rec, Layer::kTime, pls.size() + 1);
          for (std::size_t k = 0; k < pls.size(); ++k) {
            apply_placement(cfg, pls[k]);
            const double total =
                core::time_placement(sig, base, sys, cfg, o.eval).time.total();
            if (total < best_total) {
              best_total = total;
              best = k;
            }
          }
          apply_placement(cfg, pls[best]);
          r = core::time_signature(sig, base, mdl, sys, cfg, b, o.eval);
        }
        c.evaluated += pls.size();
        c.placements_timed += pls.size();
      }
    }
    if (r.feasible) incumbent = std::min(incumbent, r.iteration());
    results[i] = std::move(r);
  };

  // Deterministic rounds: the incumbent is re-read only at round barriers,
  // exactly as find_optimal does, so the pruning counts match SearchStats.
  const std::size_t round = std::max<std::size_t>(1, o.round_size);
  std::size_t pos = 0;
  std::size_t end = order.size();
  while (pos < end) {
    const auto cut = std::upper_bound(
        order.begin() + static_cast<std::ptrdiff_t>(pos),
        order.begin() + static_cast<std::ptrdiff_t>(end), incumbent,
        [&](double t, std::size_t idx) { return t < lb[idx]; });
    const std::size_t new_end = static_cast<std::size_t>(cut - order.begin());
    c.bound_pruned += end - new_end;
    end = new_end;
    const std::size_t round_end = std::min(pos + round, end);
    for (std::size_t j = pos; j < round_end; ++j) evaluate(order[j]);
    pos = round_end;
  }

  Span s(rec, Layer::kReduce, n);
  core::EvalResult best;
  for (const core::EvalResult& r : results) {
    if (search::better_result(r, best)) best = r;
  }
  return best;
}

std::vector<core::EvalResult> replay_sweep(const SweepQuery& q, Recorder& rec,
                                           ReplayCounters& c) {
  std::vector<core::EvalResult> out;
  if (q.points.empty()) return out;
  PointScanner scanner(q.mdl, q.opts.search,
                       enumerate(q.mdl, q.points.front(), q.opts.search, rec),
                       rec, c);
  // Warm seed: the previous point of the same GPU type (the engine's chain
  // predecessor when warm starts are on).
  std::map<std::string, std::size_t> last_best;
  for (const hw::SystemConfig& sys : q.points) {
    std::size_t seed = scanner.size();
    if (q.opts.warm_start) {
      if (auto it = last_best.find(sys.gpu.name); it != last_best.end()) {
        seed = it->second;
      }
    }
    std::size_t best_index = 0;
    out.push_back(scanner.scan(sys, seed, best_index));
    last_best[sys.gpu.name] = best_index;
  }
  return out;
}

std::vector<search::CodesignResult::Winner> replay_codesign(
    const CodesignQuery& q, Recorder& rec, ReplayCounters& c) {
  const search::SearchOptions& so = q.opts.sweep.search;
  std::vector<search::CodesignResult::Winner> winners(q.points.size());
  std::vector<double> incumbent(q.points.size(), kInf);
  for (std::size_t s = 0; s < q.shapes.size(); ++s) {
    const model::TransformerConfig& shape = q.shapes[s];
    std::unique_ptr<PointScanner> scanner;
    std::map<std::string, std::size_t> last_best;
    for (std::size_t p = 0; p < q.points.size(); ++p) {
      const hw::SystemConfig& sys = q.points[p];
      const std::int64_t n_gpus = so.n_gpus > 0 ? so.n_gpus : sys.n_gpus;
      double floor = 0;
      {
        Span sp(rec, Layer::kBounds);
        floor = core::shape_time_floor(shape, sys, n_gpus, so.global_batch);
      }
      if (q.opts.prune_shapes && floor > incumbent[p]) {
        ++c.shapes_pruned;
        continue;
      }
      if (!scanner) {
        scanner = std::make_unique<PointScanner>(
            shape, so, enumerate(shape, sys, so, rec), rec, c);
      }
      std::size_t seed = scanner->size();
      if (auto it = last_best.find(sys.gpu.name); it != last_best.end()) {
        seed = it->second;
      }
      std::size_t best_index = 0;
      core::EvalResult r = scanner->scan(sys, seed, best_index);
      last_best[sys.gpu.name] = best_index;
      if (r.feasible) incumbent[p] = std::min(incumbent[p], r.iteration());
      Span sp(rec, Layer::kReduce);
      if (search::better_result(r, winners[p].best)) {
        winners[p].shape = s;
        winners[p].best = std::move(r);
      }
    }
  }
  return winners;
}

search::ServePlanResult replay_serve_plan(const ServeQuery& q, Recorder& rec,
                                          ReplayCounters& c) {
  const core::ServingSpec& spec = q.opts.spec;
  const core::Workload w = spec.workload();
  model::TransformerConfig prompt = q.mdl;
  if (spec.prompt_len > 0) prompt.seq_len = spec.prompt_len;

  search::ServePlanResult res;
  for (const std::int64_t tp : spec.tp) {
    for (const std::int64_t pp : spec.pp) {
      core::ServingConfig shape;
      shape.tp = tp;
      shape.pp = pp;
      shape.kv_cap_fraction = spec.kv_cap_fraction;
      const auto why = core::serve_invalid_reason(q.mdl, q.sys, w, shape);
      const parallel::ParallelConfig cfg =
          core::serving_parallel_config(q.sys, shape);
      std::unique_ptr<core::CostSignature> sig;
      for (const std::int64_t batch : spec.batch) {
        if (spec.max_batch > 0 && batch > spec.max_batch) continue;
        core::ServingConfig sc = shape;
        sc.batch = batch;
        ++res.stats.evaluated;
        ++c.evaluated;
        if (why) {
          core::InferenceEstimate est;
          est.cfg = sc;
          est.reason = *why;
          res.points.push_back(std::move(est));
          continue;
        }
        if (!sig) {
          parallel::LayerCost layer;
          {
            Span s(rec, Layer::kBuildLayer);
            layer = parallel::build_layer(prompt, cfg, cfg.local_microbatch(1));
            ++c.build_layer_calls;
          }
          Span s(rec, Layer::kCompile);
          sig = std::make_unique<core::CostSignature>(
              core::compile_signature(prompt, cfg, 1, layer, q.opts.eval));
          ++c.signature_compiles;
        }
        Span s(rec, Layer::kServeEstimate);
        res.points.push_back(
            core::estimate_serving(q.mdl, q.sys, w, sc, *sig, q.opts.eval));
        if (res.points.back().feasible) ++res.stats.feasible;
      }
    }
  }
  Span s(rec, Layer::kServeFront);
  res.front = search::pareto_front_serving(res.points);
  return res;
}

}  // namespace perfbench
