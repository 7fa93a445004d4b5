#pragma once
// The benchmark's four workloads. Each one turns a seed into a fixed list of
// distinct queries against one public engine entry point, runs a query on
// demand (the closed loop in main.cpp decides when), keeps each query's
// first answer as its reference, checks references against an independent
// oracle, and replays its queries through the layers' public functions for
// the per-layer trace (replay.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "search/codesign.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = tfpe::core;
namespace hw = tfpe::hw;
namespace model = tfpe::model;
namespace parallel = tfpe::parallel;
namespace search = tfpe::search;

/// splitmix64: a portable generator, so a seed means the same inputs with
/// every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Engine work counters summed over the queries run since the last reset,
/// read from the public SearchStats / SweepStats / CodesignStats /
/// ServePlanStats. Every field except the stage profile is deterministic.
struct EngineCounters {
  std::size_t candidate_visits = 0;  ///< candidates x points scanned
  std::size_t evaluated = 0;
  std::size_t bound_pruned = 0;
  std::size_t memory_pruned = 0;
  std::size_t signature_compiles = 0;
  std::size_t signature_served = 0;  ///< cache hits + chain-held reuses
  std::size_t build_layer_calls = 0;
  std::size_t layer_cache_hits = 0;
  std::size_t batch_calls = 0;
  std::size_t batch_placements = 0;
  std::size_t warm_seeded = 0;
  std::size_t warm_seed_feasible = 0;
  std::size_t shape_points = 0;
  std::size_t shapes_pruned = 0;
  std::size_t serve_compiles = 0;
  std::size_t serve_reuses = 0;
  search::SweepStats::StageProfile profile;

  /// The deterministic fields, for run-to-run and thread-count comparison.
  std::vector<std::size_t> work() const;
};

/// Replay work counters, printed beside the engine's own.
struct ReplayCounters {
  std::size_t evaluated = 0;
  std::size_t bound_pruned = 0;
  std::size_t memory_pruned = 0;
  std::size_t signature_compiles = 0;
  std::size_t build_layer_calls = 0;
  std::size_t placements_timed = 0;
  std::size_t shapes_pruned = 0;
  /// Queries whose replayed optimum differs from the engine's reference.
  std::size_t optimum_mismatches = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the distinct queries from the seed (part of set-up).
  virtual void build(std::uint64_t seed) = 0;
  virtual std::size_t size() const = 0;
  /// Minimum timed passes over the query list, so every query repeats
  /// often enough for its best time even when the host is slow.
  virtual std::size_t min_passes() const = 0;
  /// Run query i through the engine; returns the points it resolved.
  virtual std::size_t run(std::size_t i) = 0;
  /// Store the answer of the last run(i) as query i's reference.
  virtual void keep_reference(std::size_t i) = 0;
  /// True when the last run(i) equals query i's reference bit for bit.
  virtual bool matches_reference(std::size_t i) const = 0;
  /// Oracle check of every reference: per query, true when it passes.
  virtual std::vector<bool> check_references() = 0;
  /// Replay every query through the layers' public functions and compare
  /// each replayed optimum with the engine's reference.
  virtual ReplayCounters replay(Recorder& rec) = 0;
  /// Worker threads of the engine (hw_sweep only; the rest are
  /// single-threaded by design).
  virtual void set_threads(unsigned) {}
  virtual unsigned threads() const { return 1; }

  EngineCounters counters;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Bit-for-bit equality of two optima (feasibility, configuration, every
/// time term and the memory total).
bool same_optimum(const core::EvalResult& a, const core::EvalResult& b);

}  // namespace perfbench
