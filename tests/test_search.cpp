// Tests for configuration enumeration and the brute-force search (S3).

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

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

// Property test for the analytic bounds: the floors must never exceed the
// achieved iteration time / HBM footprint of any valid configuration,
// across strategies, models (incl. MoE) and the expansion axes.
TEST(LowerBounds, FloorsNeverExceedActuals) {
  struct Case {
    model::TransformerConfig mdl;
    hw::SystemConfig sys;
    parallel::TpStrategy strategy;
    std::int64_t batch;
  };
  const Case cases[] = {
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::TP1D, 256},
      {model::vit_32k(), b200(8, 64), parallel::TpStrategy::TP2D, 4096},
      {model::gpt_moe_1t(), b200(8, 64), parallel::TpStrategy::TP1D, 256},
  };
  for (const auto& cs : cases) {
    EnumerationOptions eopts;
    eopts.strategy = cs.strategy;
    eopts.global_batch = cs.batch;
    const auto base = enumerate_parallel(cs.mdl, cs.sys, eopts);
    ASSERT_FALSE(base.empty());
    std::size_t checked = 0;
    const std::size_t step = std::max<std::size_t>(1, base.size() / 32);
    for (std::size_t i = 0; i < base.size(); i += step) {
      // Exercise the plain config plus the ZeRO-3 / ring / interleave
      // variants the search expands into.
      std::vector<parallel::ParallelConfig> variants{base[i]};
      variants.push_back(base[i]);
      variants.back().zero = parallel::ZeroStage::kWeights;
      if (base[i].n2 > 1 &&
          cs.mdl.attention != model::AttentionKind::kLinear) {
        variants.push_back(base[i]);
        variants.back().ring_attention = true;
      }
      if (base[i].np > 1 && (cs.mdl.depth / base[i].np) % 2 == 0) {
        variants.push_back(base[i]);
        variants.back().interleave = 2;
      }
      for (const auto& cfg : variants) {
        auto valid = cfg;
        valid.nvs1 = valid.nvs2 = valid.nvsp = valid.nvsd = 1;
        if (valid.invalid_reason(cs.mdl, cs.sys, cs.batch)) continue;
        const auto bounds =
            core::search_bounds(cs.mdl, cs.sys, cfg, cs.batch);
        const auto r = best_placement(cs.mdl, cs.sys, cfg, cs.batch);
        if (!r.feasible) {
          continue;  // memory floor <= actual is only meaningful if it fits
        }
        ++checked;
        EXPECT_LE(bounds.time_floor, r.iteration() * (1 + 1e-9))
            << cfg.describe();
        EXPECT_LE(bounds.memory_floor, r.mem.total().value() * (1 + 1e-9))
            << cfg.describe();
      }
    }
    EXPECT_GT(checked, 0u);
  }
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
