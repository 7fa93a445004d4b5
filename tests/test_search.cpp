// Tests for configuration enumeration and the brute-force search (S3).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lower_bounds.hpp"
#include "search/search.hpp"
#include "search/sweep.hpp"

namespace tfpe::search {
namespace {

hw::SystemConfig b200(std::int64_t nvs, std::int64_t n) {
  return hw::make_system(hw::GpuGeneration::B200, nvs, n);
}

TEST(Enumerate, AllConfigsSatisfyConstraints) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 512);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  EXPECT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.invalid_reason(mdl, sys, 4096), std::nullopt)
        << c.describe();
    EXPECT_EQ(c.total_gpus(), 512);
    EXPECT_EQ(c.n2, 1);
  }
}

TEST(Enumerate, CoversAllFactorizations) {
  // 1D TP over 64 GPUs: every (nt, np, nd) triple with nt*np*nd = 64 whose
  // divisibility holds must be present for every valid m.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 64);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 64;
  opts.fixed_m = 1;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
  for (const auto& c : configs) seen.insert({c.n1, c.np, c.nd});
  // nt in {1..32} (64 does not divide heads=160), np in divisors of 64 that
  // divide depth=128 (all of them), nd | 64.
  std::size_t expected = 0;
  for (std::int64_t nt : {1, 2, 4, 8, 16, 32}) {
    for (std::int64_t np = 1; nt * np <= 64; np *= 2) {
      const std::int64_t nd = 64 / (nt * np);
      if (nt * np * nd == 64) ++expected;
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(Enumerate, FixedFactorsRespected) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 1024);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  opts.fixed_np = 16;
  opts.fixed_local_microbatch = 1;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  EXPECT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.np, 16);
    EXPECT_EQ(c.local_microbatch(4096), 1);
  }
}

TEST(Enumerate, SummaGeneratesPanelVariants) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 64);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 64;
  opts.fixed_n1 = 4;
  opts.fixed_n2 = 4;
  opts.fixed_np = 1;
  opts.fixed_m = 1;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  std::set<std::int64_t> nbs;
  for (const auto& c : configs) nbs.insert(c.nb);
  EXPECT_EQ(nbs, (std::set<std::int64_t>{1, 2, 4, 8, 16}));
}

TEST(Enumerate, NonSummaHasSinglePanel) {
  const auto mdl = model::gpt3_1t();
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP2D;
  opts.global_batch = 64;
  const auto configs = enumerate_parallel(mdl, b200(8, 64), opts);
  for (const auto& c : configs) EXPECT_EQ(c.nb, 1);
}

TEST(Placements, AllValidAndNonDominated) {
  parallel::ParallelConfig c;
  c.n1 = 8;
  c.n2 = 1;
  c.np = 16;
  c.nd = 4;
  const auto pls = enumerate_placements(c, 8);
  EXPECT_FALSE(pls.empty());
  for (const auto& p : pls) {
    EXPECT_EQ(c.n1 % p[0], 0);
    EXPECT_EQ(c.n2 % p[1], 0);
    EXPECT_EQ(c.np % p[2], 0);
    EXPECT_EQ(c.nd % p[3], 0);
    EXPECT_LE(p[0] * p[1] * p[2] * p[3], 8);
  }
  // Dominated check: no pair where one placement >= the other everywhere.
  for (const auto& a : pls) {
    for (const auto& b : pls) {
      if (&a == &b) continue;
      const bool dominates = a[0] >= b[0] && a[1] >= b[1] && a[2] >= b[2] &&
                             a[3] >= b[3] &&
                             (a[0] > b[0] || a[1] > b[1] || a[2] > b[2] ||
                              a[3] > b[3]);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Placements, FullTpPackingAvailable) {
  parallel::ParallelConfig c;
  c.n1 = 8;
  c.np = 64;
  c.nd = 32;
  const auto pls = enumerate_placements(c, 8);
  bool has_full_tp = false;
  for (const auto& p : pls) {
    if (p[0] == 8) has_full_tp = true;
  }
  EXPECT_TRUE(has_full_tp);
}

TEST(FindOptimal, BeatsEveryManualConfig) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  const SearchResult res = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(res.best.feasible);
  EXPECT_GT(res.evaluated, 0u);
  EXPECT_GT(res.feasible, 0u);
  // Spot-check against a handful of manual configurations.
  for (std::int64_t nt : {1, 2, 4, 8}) {
    for (std::int64_t np : {1, 2, 4, 8}) {
      parallel::ParallelConfig c;
      c.strategy = parallel::TpStrategy::TP1D;
      c.n1 = nt;
      c.np = np;
      c.nd = 64 / (nt * np);
      c.microbatches = 256 / c.nd;
      const auto r = best_placement(mdl, sys, c, 256);
      if (r.feasible) {
        EXPECT_LE(res.best.iteration(), r.iteration() * (1 + 1e-12))
            << c.describe();
      }
    }
  }
}

TEST(FindOptimal, DeterministicAcrossThreadCounts) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  opts.threads = 1;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.threads = 8;
  const SearchResult b = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(a.best.feasible && b.best.feasible);
  EXPECT_DOUBLE_EQ(a.best.iteration(), b.best.iteration());
  EXPECT_EQ(a.best.cfg.describe(), b.best.cfg.describe());
  EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(FindOptimal, GreedyPlacementFallback) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  opts.search_placement = false;
  const SearchResult res = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(res.best.feasible);
  // With placement search the result can only improve.
  opts.search_placement = true;
  const SearchResult full = find_optimal(mdl, sys, opts);
  EXPECT_LE(full.best.iteration(), res.best.iteration() * (1 + 1e-12));
}

// --- Prune-and-memoize engine (branch-and-bound + caches) ---

void expect_same_optimum(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.best.feasible, b.best.feasible);
  if (!a.best.feasible) return;
  EXPECT_EQ(a.best.cfg.describe(), b.best.cfg.describe());
  EXPECT_EQ(a.best.iteration(), b.best.iteration());  // bitwise
  EXPECT_EQ(a.best.mem.total(), b.best.mem.total());
}

TEST(Pruning, MatchesExhaustiveOnGpt3175b) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult pruned = find_optimal(mdl, sys, opts);
  expect_same_optimum(pruned, brute);
  // The engine must actually prune, and share op lists across candidates:
  // >= 5x fewer build_layer invocations than one-per-candidate.
  EXPECT_GT(pruned.stats.bound_pruned + pruned.stats.memory_pruned, 0u);
  EXPECT_LE(pruned.stats.build_layer_calls * 5, brute.stats.build_layer_calls);
  EXPECT_LT(pruned.evaluated, brute.evaluated);
}

TEST(Pruning, MatchesExhaustiveOnVit32k) {
  // 2D TP with the ring/interleave expansion axes on the comm-heavy ViT.
  const auto mdl = model::vit_32k();
  const auto sys = b200(8, 256);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP2D;
  opts.global_batch = 4096;
  opts.allow_ring_attention = true;
  opts.interleave_candidates = {1, 2};
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult pruned = find_optimal(mdl, sys, opts);
  expect_same_optimum(pruned, brute);
  EXPECT_LE(pruned.stats.build_layer_calls * 5, brute.stats.build_layer_calls);
}

TEST(Pruning, CountersInvariantAcrossThreadCounts) {
  // Round-barrier pruning makes the work counters — not just the optimum —
  // independent of the thread count.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  opts.threads = 1;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.threads = 8;
  const SearchResult b = find_optimal(mdl, sys, opts);
  expect_same_optimum(a, b);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.stats.bound_pruned, b.stats.bound_pruned);
  EXPECT_EQ(a.stats.memory_pruned, b.stats.memory_pruned);
  EXPECT_EQ(a.stats.build_layer_calls, b.stats.build_layer_calls);
  EXPECT_EQ(a.stats.layer_cache_hits, b.stats.layer_cache_hits);
  EXPECT_EQ(a.stats.placement_sets, b.stats.placement_sets);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(Pruning, TopKRankingUnaffected) {
  // top_k > 0 bypasses incumbent pruning; the ranking must match the
  // brute-force sweep exactly.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  opts.top_k = 5;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult pruned = find_optimal(mdl, sys, opts);
  ASSERT_EQ(pruned.top.size(), brute.top.size());
  for (std::size_t i = 0; i < brute.top.size(); ++i) {
    EXPECT_EQ(pruned.top[i].cfg.describe(), brute.top[i].cfg.describe());
    EXPECT_EQ(pruned.top[i].iteration(), brute.top[i].iteration());
  }
}

TEST(Pruning, MatchesExhaustiveOnSumma) {
  // SUMMA (panelled, nb > 1) with the interleave and ZeRO-3 axes: the
  // pruned engine's batched placement scan against the single-phase
  // evaluate_with_layer oracle, bitwise — first with incumbent pruning,
  // then with top_k so every feasible candidate runs the batched scan
  // without an incumbent and the whole ranking is pinned.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 256;
  opts.interleave_candidates = {1, 2};
  opts.allow_zero3 = true;
  for (std::size_t top_k : {std::size_t{0}, std::size_t{3}}) {
    opts.top_k = top_k;
    opts.prune = false;
    const SearchResult brute = find_optimal(mdl, sys, opts);
    opts.prune = true;
    const SearchResult pruned = find_optimal(mdl, sys, opts);
    ASSERT_TRUE(brute.best.feasible);
    expect_same_optimum(pruned, brute);
    ASSERT_EQ(pruned.top.size(), brute.top.size());
    EXPECT_EQ(brute.top.size(), top_k);
    for (std::size_t i = 0; i < brute.top.size(); ++i) {
      EXPECT_EQ(pruned.top[i].cfg.describe(), brute.top[i].cfg.describe());
      EXPECT_EQ(pruned.top[i].iteration(), brute.top[i].iteration());
      EXPECT_EQ(pruned.top[i].mem.total(), brute.top[i].mem.total());
    }
  }
}

TEST(Pruning, CommFloorScreenMatchesExhaustiveOnSummaZero3) {
  // The placement scan screens each candidate's comm floor against the
  // round's incumbent snapshot; small rounds put almost every candidate
  // behind a finite snapshot. SUMMA + ZeRO-3 + interleave with the
  // overlap/recompute extensions on an oversubscribed leaf/spine fabric:
  // the optimum must equal the exhaustive single-phase oracle bitwise, and
  // every work counter must stay independent of the thread count.
  const auto mdl = model::gpt3_175b();
  const hw::SystemConfig sys =
      hardware_grid({hw::GpuGeneration::H200}, {8}, {4.0}, 128, 32).front();
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 512;
  opts.interleave_candidates = {1, 2, 4};
  opts.allow_zero3 = true;
  opts.eval.tp_overlap = 0.3;
  opts.eval.activation_recompute = true;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  opts.round_size = 4;
  opts.threads = 1;
  const SearchResult one = find_optimal(mdl, sys, opts);
  opts.threads = 4;
  const SearchResult four = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(brute.best.feasible);
  expect_same_optimum(one, brute);
  expect_same_optimum(four, brute);
  // The screen does most of the work here: with the analytic bound alone
  // the pruned engine timed about 70% of the exhaustive placements, with
  // the comm floor about 2%.
  EXPECT_LT(one.evaluated * 10, brute.evaluated);
  EXPECT_EQ(one.evaluated, four.evaluated);
  EXPECT_EQ(one.feasible, four.feasible);
  EXPECT_EQ(one.stats.bound_pruned, four.stats.bound_pruned);
  EXPECT_EQ(one.stats.memory_pruned, four.stats.memory_pruned);
  EXPECT_EQ(one.stats.signature_compiles, four.stats.signature_compiles);
  EXPECT_EQ(one.stats.rounds, four.stats.rounds);
}

TEST(Pruning, TpFloorMatchesExhaustiveAcrossStrategies) {
  // The exposed-TP floor prunes candidates before they are compiled; the
  // optimum must still equal the exhaustive single-phase oracle bitwise
  // for every strategy, dense and MoE (SUMMA has no MoE builder), with and
  // without recompute + overlap, and the work counters must not depend on
  // the thread count. Small rounds put most candidates behind a finite
  // incumbent snapshot.
  core::EvalOptions ext;
  ext.activation_recompute = true;
  ext.tp_overlap = 0.3;
  for (const auto strategy :
       {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
        parallel::TpStrategy::Summa2D}) {
    for (const auto& mdl : {model::gpt3_175b(), model::gpt_moe_1t()}) {
      if (mdl.is_moe() && strategy == parallel::TpStrategy::Summa2D) continue;
      for (const auto& eval : {core::EvalOptions{}, ext}) {
        const std::string label = parallel::to_string(strategy) + " " +
                                  mdl.name +
                                  (eval.activation_recompute ? " ext" : "");
        SearchOptions opts;
        opts.strategy = strategy;
        opts.global_batch = 256;
        opts.interleave_candidates = {1, 2};
        opts.allow_zero3 = true;
        opts.eval = eval;
        opts.prune = false;
        const SearchResult brute = find_optimal(mdl, b200(8, 64), opts);
        opts.prune = true;
        opts.round_size = 4;
        opts.threads = 1;
        const SearchResult one = find_optimal(mdl, b200(8, 64), opts);
        opts.threads = 4;
        const SearchResult four = find_optimal(mdl, b200(8, 64), opts);
        ASSERT_TRUE(brute.best.feasible) << label;
        SCOPED_TRACE(label);
        expect_same_optimum(one, brute);
        expect_same_optimum(four, brute);
        EXPECT_LT(one.evaluated, brute.evaluated);
        EXPECT_EQ(one.evaluated, four.evaluated);
        EXPECT_EQ(one.feasible, four.feasible);
        EXPECT_EQ(one.stats.bound_pruned, four.stats.bound_pruned);
        EXPECT_EQ(one.stats.memory_pruned, four.stats.memory_pruned);
        EXPECT_EQ(one.stats.signature_compiles, four.stats.signature_compiles);
        EXPECT_EQ(one.stats.build_layer_calls, four.stats.build_layer_calls);
        EXPECT_EQ(one.stats.rounds, four.stats.rounds);
      }
    }
  }
}

TEST(FindOptimal, OptimumPostconditionNamesTheConfiguration) {
  // find_optimal checks its own optimum; corrupted copies of it — not
  // finite, not positive, below the analytic floor — must be rejected with
  // a logic_error that names the configuration.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.global_batch = 256;
  const SearchResult res = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(res.best.feasible);
  const hw::Topology fabric = sys.resolved_fabric();
  EXPECT_NO_THROW(check_optimum(mdl, sys, fabric, res.best, 256, opts.eval));
  const double floor =
      core::search_bounds(mdl, sys, fabric, res.best.cfg, 256, opts.eval)
          .time_floor;
  for (const double compute : {std::nan(""), -1.0, 0.0, 0.5 * floor}) {
    core::EvalResult bad = res.best;
    bad.time = core::TimeBreakdown{};
    bad.time.compute = compute;
    try {
      check_optimum(mdl, sys, fabric, bad, 256, opts.eval);
      ADD_FAILURE() << "accepted iteration time " << compute;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(res.best.cfg.describe()),
                std::string::npos)
          << e.what();
    }
    bad.feasible = false;  // infeasible results carry no time to check
    EXPECT_NO_THROW(check_optimum(mdl, sys, fabric, bad, 256, opts.eval));
  }
}

TEST(FindOptimal, RejectsOutOfRangeEvalOptions) {
  // Fractions outside [0, 1] (or NaN) would yield negative or meaningless
  // iteration times; the search refuses them instead of ranking them.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  for (double bad : {2.0, -0.5, std::nan("")}) {
    SearchOptions o = opts;
    o.eval.tp_overlap = bad;
    EXPECT_THROW(find_optimal(mdl, sys, o), std::invalid_argument) << bad;
    o = opts;
    o.eval.activation_offload = bad;
    EXPECT_THROW(find_optimal(mdl, sys, o), std::invalid_argument) << bad;
    EXPECT_THROW(pareto_frontier(mdl, sys, o), std::invalid_argument) << bad;
  }
  opts.eval.tp_overlap = 1.0;
  opts.eval.activation_offload = 0.0;
  EXPECT_NO_THROW(find_optimal(mdl, sys, opts));
}

TEST(Pruning, RoundSizeDoesNotChangeOptimum) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.round_size = 1;
  const SearchResult b = find_optimal(mdl, sys, opts);
  opts.round_size = 100000;
  const SearchResult c = find_optimal(mdl, sys, opts);
  expect_same_optimum(a, b);
  expect_same_optimum(a, c);
  // A single all-candidate round cannot prune anything after the barrier.
  EXPECT_GE(b.stats.bound_pruned, c.stats.bound_pruned);
}

// --- Analytic bounds (core/lower_bounds.hpp) ---

/// One bounds property case: a model on a system under one strategy and
/// EvalOptions setting.
struct BoundCase {
  const char* label;
  model::TransformerConfig mdl;
  hw::SystemConfig sys;
  parallel::TpStrategy strategy;
  std::int64_t batch;
  core::EvalOptions eval;
};

/// A narrow model whose exposed TP collectives outweigh its matmuls
/// (comm/compute grows as tp / embed), with n1 = 16 groups that span two
/// NVS domains.
model::TransformerConfig comm_bound_model() {
  model::TransformerConfig m;
  m.name = "comm-bound";
  m.seq_len = 2048;
  m.embed = 1024;
  m.heads = 16;
  m.depth = 16;
  m.hidden = 4096;
  m.validate();
  return m;
}

/// The cases both floor properties sweep: every strategy (SUMMA with its nb
/// panel variants), dense / windowed / linear attention, MoE under 1D and
/// 2D, the overlap / recompute / offload extensions, a leaf/spine fabric
/// with spine oversubscription 4, and a TP-comm-bound model.
std::vector<BoundCase> bound_cases() {
  core::EvalOptions overlap;
  overlap.tp_overlap = 0.5;
  core::EvalOptions recompute;
  recompute.activation_recompute = true;
  core::EvalOptions all_ext;
  all_ext.tp_overlap = 0.3;
  all_ext.activation_recompute = true;
  all_ext.activation_offload = 0.5;
  const hw::SystemConfig spine =
      hardware_grid({hw::GpuGeneration::H200}, {8}, {4.0}, 128, 32).front();
  using S = parallel::TpStrategy;
  return {
      {"175b 1D", model::gpt3_175b(), b200(8, 64), S::TP1D, 256, {}},
      {"vit32k 2D", model::vit_32k(), b200(8, 64), S::TP2D, 4096, {}},
      {"moe 1D", model::gpt_moe_1t(), b200(8, 64), S::TP1D, 256, {}},
      {"175b summa", model::gpt3_175b(), b200(8, 64), S::Summa2D, 256, {}},
      {"windowed 2D", model::vit_64k_windowed(4096), b200(8, 256), S::TP2D,
       1024, {}},
      {"windowed summa", model::vit_64k_windowed(4096), b200(8, 256),
       S::Summa2D, 1024, overlap},
      {"linear 2D", model::vit_64k_linear(), b200(8, 256), S::TP2D, 1024, {}},
      {"moe 2D", model::gpt_moe_1t(), b200(8, 64), S::TP2D, 256, {}},
      {"175b 1D overlap", model::gpt3_175b(), b200(8, 64), S::TP1D, 256,
       overlap},
      {"vit32k 2D recompute", model::vit_32k(), b200(8, 64), S::TP2D, 4096,
       recompute},
      {"175b summa all-ext", model::gpt3_175b(), b200(8, 64), S::Summa2D, 256,
       all_ext},
      {"moe 2D all-ext", model::gpt_moe_1t(), b200(8, 64), S::TP2D, 256,
       all_ext},
      {"175b 1D spine x4", model::gpt3_175b(), spine, S::TP1D, 512, recompute},
      {"175b 2D spine x4", model::gpt3_175b(), spine, S::TP2D, 512, overlap},
      {"comm-bound 1D", comm_bound_model(), b200(8, 64), S::TP1D, 256, {}},
      {"comm-bound 1D overlap", comm_bound_model(), b200(8, 64), S::TP1D, 256,
       overlap},
      {"comm-bound 2D recompute", comm_bound_model(), b200(8, 64), S::TP2D,
       256, recompute},
  };
}

/// Call fn(cfg) for every valid enumerated candidate of the case and the
/// ZeRO-3 / ring / interleave / ZeRO-3 + interleave variants the search
/// expands each into. The whole space, not a stride: the configurations
/// where the floors are tightest (PP = 1, TP-heavy) are a small minority.
template <typename Fn>
void for_each_bound_candidate(const BoundCase& cs, Fn&& fn) {
  EnumerationOptions eopts;
  eopts.strategy = cs.strategy;
  eopts.global_batch = cs.batch;
  const auto base = enumerate_parallel(cs.mdl, cs.sys, eopts);
  ASSERT_FALSE(base.empty()) << cs.label;
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::vector<parallel::ParallelConfig> variants{base[i]};
    variants.push_back(base[i]);
    variants.back().zero = parallel::ZeroStage::kWeights;
    if (base[i].n2 > 1 && cs.mdl.attention != model::AttentionKind::kLinear) {
      variants.push_back(base[i]);
      variants.back().ring_attention = true;
    }
    if (base[i].np > 1 && (cs.mdl.depth / base[i].np) % 2 == 0) {
      variants.push_back(base[i]);
      variants.back().interleave = 2;
      variants.push_back(variants.back());
      variants.back().zero = parallel::ZeroStage::kWeights;
    }
    for (const auto& cfg : variants) {
      auto valid = cfg;
      valid.nvs1 = valid.nvs2 = valid.nvsp = valid.nvsd = 1;
      if (valid.invalid_reason(cs.mdl, cs.sys, cs.batch)) continue;
      fn(cfg);
    }
  }
}

// Property test for the analytic bounds: the floors must never exceed the
// achieved iteration time / HBM footprint of any valid configuration,
// across strategies, models (incl. MoE), attention kinds, extensions,
// fabrics and the expansion axes.
TEST(LowerBounds, FloorsNeverExceedActuals) {
  for (const auto& cs : bound_cases()) {
    std::size_t checked = 0;
    for_each_bound_candidate(cs, [&](const parallel::ParallelConfig& cfg) {
      const auto bounds =
          core::search_bounds(cs.mdl, cs.sys, cfg, cs.batch, cs.eval);
      const auto r = best_placement(cs.mdl, cs.sys, cfg, cs.batch, cs.eval);
      if (!r.feasible) return;  // memory floor <= actual only if it fits
      ++checked;
      EXPECT_LE(bounds.time_floor, r.iteration() * (1 + 1e-9))
          << cs.label << " " << cfg.describe();
      EXPECT_LE(bounds.memory_floor, r.mem.total().value() * (1 + 1e-9))
          << cs.label << " " << cfg.describe();
    });
    EXPECT_GT(checked, 0u) << cs.label;
  }
}

// The exposed-TP-collective term on its own is a floor on the kernel's
// tp_comm for every placement the batch kernel times — not merely hidden
// under the slack of the other terms.
TEST(LowerBounds, TpCommFloorNeverExceedsAnyPlacement) {
  std::size_t positive = 0;
  for (const auto& cs : bound_cases()) {
    std::size_t checked = 0;
    for_each_bound_candidate(cs, [&](const parallel::ParallelConfig& cfg) {
      const auto bounds =
          core::search_bounds(cs.mdl, cs.sys, cfg, cs.batch, cs.eval);
      EXPECT_LE(bounds.tp_comm_floor, bounds.time_floor) << cfg.describe();
      const core::CostSignature sig =
          core::compile_signature(cs.mdl, cfg, cs.batch, cs.eval);
      const core::BatchedSignature bat = core::lower_batched(sig);
      const core::SystemTiming base =
          core::bind_system_batched(sig, bat, cs.sys, cs.eval);
      std::vector<core::PlacementTiming> timings;
      core::time_placements_batch(sig, bat, base, cs.sys, cfg,
                                  enumerate_placements(cfg, cs.sys.nvs_domain),
                                  cs.eval, timings);
      for (const auto& t : timings) {
        ++checked;
        EXPECT_LE(bounds.tp_comm_floor, t.time.tp_comm)
            << cs.label << " " << cfg.describe();
      }
      if (bounds.tp_comm_floor > 0) ++positive;
    });
    EXPECT_GT(checked, 0u) << cs.label;
  }
  EXPECT_GT(positive, 0u);
}

TEST(FindOptimal, ReportsInfeasibleWhenNothingFits) {
  // 1D TP cannot fit the ViT-64K on a single A100 node.
  const auto mdl = model::vit_64k();
  const auto sys = hw::make_system(hw::GpuGeneration::A100, 4, 4);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  const SearchResult res = find_optimal(mdl, sys, opts);
  EXPECT_FALSE(res.best.feasible);
  EXPECT_FALSE(res.best.reason.empty());
}

TEST(FindOptimal, NamesTheBindingConstraintWhenNothingFits) {
  // GPT3-1T on 8 GPUs: every parallelization is valid, none fits in HBM.
  // The reason counts what each constraint ruled out instead of repeating
  // "no feasible configuration", in both engines.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 8);
  SearchOptions opts;
  opts.global_batch = 8;
  for (bool prune : {true, false}) {
    opts.prune = prune;
    const SearchResult res = find_optimal(mdl, sys, opts);
    ASSERT_FALSE(res.best.feasible);
    const std::string n = std::to_string(res.stats.candidates);
    EXPECT_EQ(res.best.reason,
              "all " + n + " candidates ruled out: 0 invalid, " + n +
                  " over HBM capacity (memory floor or footprint); first: "
                  "exceeds HBM capacity")
        << "prune=" << prune;
  }
  // Candidates enumerated for more GPUs than the system has are invalid.
  opts.prune = true;
  opts.n_gpus = 16;
  const SearchResult oversized = find_optimal(mdl, sys, opts);
  ASSERT_FALSE(oversized.best.feasible);
  const std::string n = std::to_string(oversized.stats.candidates);
  EXPECT_EQ(oversized.best.reason,
            "all " + n + " candidates ruled out: " + n +
                " invalid, 0 over HBM capacity (memory floor or footprint); "
                "first: configuration exceeds available GPUs");
  // An empty candidate space says so.
  opts.n_gpus = 0;
  opts.fixed_n1 = 3;  // divides no GPT3-1T width
  const SearchResult empty = find_optimal(mdl, sys, opts);
  EXPECT_EQ(empty.stats.candidates, 0u);
  EXPECT_EQ(empty.best.reason,
            "no candidate parallelization for this model, strategy and GPU "
            "count");
}

}  // namespace
}  // namespace tfpe::search
