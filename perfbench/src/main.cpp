// Planner benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics: set-up (input generation plus
// one untimed warm-up pass over the distinct queries, run cold 5 to 25
// times over the run and reported as a median), then a closed loop with one
// client that runs whole passes over the queries until S seconds have
// passed and the workload's minimum pass count is reached. The query
// figures come from each query's best time over its repeats, since the
// engines are deterministic and only the host varies between repeats.
// Answers are checked outside the timed region: each timed answer must
// equal its query's reference, and each reference must pass the
// workload's oracle check.
//
// --trace 1 reports the per-layer metrics: engine counters from two
// untraced passes (which must agree exactly; hw_sweep also at 1 worker),
// then the replay through the layers' public functions, once untraced and
// once traced, whose difference is the tracing overhead.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::EngineCounters;
using perfbench::Layer;
using perfbench::Recorder;
using perfbench::ReplayCounters;
using perfbench::Workload;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process, from /proc/self/status.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name, unit;
  double value;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

void print_report(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

/// Run every query once; a throwing query counts as failed.
void pass(Workload& w, bool keep_reference, std::size_t& failed) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    try {
      w.run(i);
      if (keep_reference) {
        w.keep_reference(i);
      } else if (!w.matches_reference(i)) {
        ++failed;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "query %zu failed: %s\n", i, e.what());
      ++failed;
    }
  }
}

/// One set-up: input generation plus an untimed warm-up pass that keeps
/// each query's answer as its reference. Returns its wall time.
double set_up(Workload& w, std::uint64_t seed, std::size_t& failed) {
  const double t0 = now_s();
  w.build(seed);
  pass(w, /*keep_reference=*/true, failed);
  return now_s() - t0;
}

/// Cold set-ups on request, spread over the run. The constructor forks a
/// template process before this process does any work; for each request
/// the template forks a worker that runs one set-up, so every set-up
/// starts with no pages touched, no allocator state and no lazy state
/// built, however late in the run it is requested. The worker sends back
/// its wall time and failed-query count.
class ColdSetups {
 public:
  ColdSetups(Workload& w, std::uint64_t seed) {
    int req[2], res[2];
    if (pipe(req) != 0) throw std::runtime_error("pipe failed");
    if (pipe(res) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    template_ = fork();
    if (template_ < 0) throw std::runtime_error("fork failed");
    if (template_ == 0) {
      close(req[1]);
      close(res[0]);
      serve(w, seed, req[0], res[1]);
    }
    close(req[0]);
    close(res[1]);
    request_ = req[1];
    result_ = res[0];
  }
  ~ColdSetups() {
    close(request_);
    close(result_);
    waitpid(template_, nullptr, 0);
  }
  ColdSetups(const ColdSetups&) = delete;
  ColdSetups& operator=(const ColdSetups&) = delete;

  /// One cold set-up; returns its wall time.
  double run(std::size_t& failed) {
    const char go = 1;
    double msg[2] = {-1, 0};
    if (write(request_, &go, 1) != 1 ||
        read(result_, msg, sizeof(msg)) != sizeof(msg) || msg[0] < 0) {
      throw std::runtime_error("cold set-up failed");
    }
    failed += static_cast<std::size_t>(msg[1]);
    return msg[0];
  }

 private:
  /// The template's loop: one worker per request byte, until the request
  /// pipe closes. A worker that fails sends a negative time.
  [[noreturn]] static void serve(Workload& w, std::uint64_t seed, int req,
                                 int res) {
    char go;
    while (read(req, &go, 1) == 1) {
      const pid_t pid = fork();
      if (pid == 0) {
        double msg[2] = {-1, 0};
        try {
          std::size_t failed = 0;
          msg[0] = set_up(w, seed, failed);
          msg[1] = static_cast<double>(failed);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "set-up failed: %s\n", e.what());
          std::fflush(stderr);
        }
        _exit(write(res, msg, sizeof(msg)) == sizeof(msg) ? 0 : 1);
      }
      int status = 0;
      if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        const double msg[2] = {-1, 0};
        if (write(res, msg, sizeof(msg)) != sizeof(msg)) _exit(1);
      }
    }
    _exit(0);
  }

  pid_t template_ = -1;
  int request_ = -1;
  int result_ = -1;
};

Report run_end_to_end(Workload& w, std::uint64_t seed, double seconds) {
  Report r;
  // Set-up, measured cold several times: once in this process, whose
  // set-up keeps the references the timed loop checks, and the rest in
  // ColdSetups workers at even steps of the timed phase, so the median
  // does not rest on one stretch of the host's load. A cheap set-up is at
  // the mercy of a brief slow stretch, so it is repeated more often: as
  // many times as fit in about 15% of the run, from 5 to 25.
  ColdSetups cold(w, seed);
  std::vector<double> setups;
  std::size_t failed = 0;
  setups.push_back(set_up(w, seed, failed));
  const std::size_t n_setups = static_cast<std::size_t>(
      std::clamp(std::round(0.15 * seconds / setups.front()), 5.0, 25.0));
  const auto cold_set_up = [&] {
    setups.push_back(cold.run(failed));
    r.attempted += w.size();
  };
  r.attempted += w.size();
  const std::vector<bool> ok = w.check_references();
  const std::size_t bad_refs =
      static_cast<std::size_t>(std::count(ok.begin(), ok.end(), false));

  // Only the engine call is timed; the reference comparison is not.
  std::size_t samples = 0;
  std::vector<std::vector<double>> per_query(w.size());
  std::vector<std::size_t> query_points(w.size(), 0);
  std::size_t passes = 0;
  // Every pass runs the queries in a fresh seeded order: a query's time
  // depends on what ran before it (allocator state), so a fixed order would
  // tie each query to one predecessor for the whole run.
  std::vector<std::size_t> order(w.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  perfbench::Rng rng(seed ^ 0x5eedULL);
  // elapsed counts the timed phase only, not the set-ups run between
  // passes.
  double start = now_s();
  double elapsed = 0;
  std::vector<double> pass_ms;
  while (elapsed < seconds || passes < w.min_passes()) {
    if (setups.size() < n_setups &&
        elapsed >= seconds * static_cast<double>(setups.size() - 1) /
                       static_cast<double>(n_setups - 1)) {
      const double t0 = now_s();
      cold_set_up();
      start += now_s() - t0;
    }
    rng.shuffle(order);
    pass_ms.push_back(0);
    for (const std::size_t i : order) {
      bool good = ok[i];
      const double t0 = now_s();
      try {
        query_points[i] = w.run(i);
        const double t_ms = (now_s() - t0) * 1e3;
        per_query[i].push_back(t_ms);
        pass_ms.back() += t_ms;
        ++samples;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query %zu failed: %s\n", i, e.what());
        good = false;
      }
      good = good && w.matches_reference(i);
      ++r.attempted;
      if (!good) ++failed;
    }
    ++passes;
    elapsed = now_s() - start;
  }
  while (setups.size() < n_setups) cold_set_up();

  r.failed = failed;
  r.correct = failed == 0 && bad_refs == 0;
  std::printf("distinct queries %zu, passes %zu, timed %.3f s, samples %zu\n",
              w.size(), passes, elapsed, samples);
  std::printf("cold set-ups s, in order:");
  for (const double t : setups) std::printf(" %.4g", t);
  std::printf("\n");
  std::printf("reference checks failed: %zu of %zu\n", bad_refs, ok.size());
  std::printf("timed ms per pass, in order:");
  for (const double p : pass_ms) std::printf(" %.4g", p);
  std::printf("\n");
  // Each query's cost is its best time over the run. The engines are
  // deterministic, so every repeat of a query does the same work and the
  // spread of its times is the host's, which only ever slows a query down.
  // The best of many repeats spread over the run is the query's cost when
  // the host lets it run freely, and it moves far less than a median when
  // the host's speed changes between runs.
  std::vector<double> best, typical;
  for (const auto& q : per_query) {
    if (q.empty()) {  // the query threw on every pass
      r.correct = false;
      return r;
    }
    best.push_back(*std::min_element(q.begin(), q.end()));
    typical.push_back(median(q));
  }
  const double pass_points = static_cast<double>(
      std::accumulate(query_points.begin(), query_points.end(), std::size_t{0}));
  const double best_pass_ms = std::accumulate(best.begin(), best.end(), 0.0);
  std::printf("per-query best ms (median of its repeats in brackets), "
              "ascending:");
  std::vector<std::size_t> by_cost(best.size());
  std::iota(by_cost.begin(), by_cost.end(), std::size_t{0});
  std::sort(by_cost.begin(), by_cost.end(),
            [&](std::size_t a, std::size_t b) { return best[a] < best[b]; });
  for (const std::size_t q : by_cost) {
    std::printf(" %.3g (%.3g)", best[q], typical[q]);
  }
  std::printf("\n");
  std::printf("host slowdown, median repeat over best, summed over a pass: "
              "%.3f\n",
              std::accumulate(typical.begin(), typical.end(), 0.0) /
                  best_pass_ms);
  // The raw wall-time distribution, for reference: its median and the
  // sample with ten samples beyond it.
  std::vector<double> all;
  for (const auto& q : per_query) all.insert(all.end(), q.begin(), q.end());
  std::sort(all.begin(), all.end());
  if (all.size() > 10) {
    const std::size_t k = all.size() - 11;
    std::printf("all %zu timed samples: median %.4g ms, p%.2f %.4g ms (10 "
                "samples beyond it)\n",
                all.size(), median(all),
                100.0 * static_cast<double>(k + 1) /
                    static_cast<double>(all.size()),
                all[k]);
  }
  r.add("setup_s", median(setups), "s");
  r.add("points_per_s", pass_points / (best_pass_ms / 1e3), "1/s");
  r.add("query_ms_p50", median(best), "ms");
  r.add("query_ms_max", *std::max_element(best.begin(), best.end()), "ms");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

Report run_traced(Workload& w, std::uint64_t seed, const std::string& out) {
  Report r;
  w.build(seed);
  std::size_t failed = 0;

  // Engine counters: two untraced passes must agree exactly.
  w.counters = {};
  pass(w, /*keep_reference=*/true, failed);
  const EngineCounters first = w.counters;
  w.counters = {};
  pass(w, /*keep_reference=*/false, failed);
  bool counters_repeat = first.work() == w.counters.work();
  double compile_busy_1t = 0;
  if (w.threads() > 1) {
    const unsigned t = w.threads();
    w.set_threads(1);
    w.counters = {};
    pass(w, /*keep_reference=*/false, failed);
    compile_busy_1t = w.counters.profile.compile_s;
    const bool invariant = first.work() == w.counters.work();
    std::printf("engine counters identical at 1 and %u workers: %s\n", t,
                invariant ? "yes" : "NO");
    counters_repeat = counters_repeat && invariant;
    w.set_threads(t);
  }
  std::printf("engine counters identical across runs: %s\n",
              counters_repeat ? "yes" : "NO");
  const EngineCounters& e = first;
  r.attempted += 2 * w.size() + (w.threads() > 1 ? w.size() : 0);

  // After one untimed warm-up replay, rounds alternate untraced and
  // traced; short replays repeat until about a second of each, and the
  // overhead compares the medians. Per-layer figures are per round (every
  // round makes the same calls).
  Recorder off(false);
  Recorder on(true);
  double t0 = now_s();
  failed += w.replay(off).optimum_mismatches;
  const double warm_s = now_s() - t0;
  r.attempted += w.size();
  const std::size_t rounds = static_cast<std::size_t>(
      std::clamp(std::ceil(1.0 / warm_s), 3.0, 50.0));
  std::vector<double> untraced_s, traced_s;
  ReplayCounters c;
  for (std::size_t k = 0; k < rounds; ++k) {
    t0 = now_s();
    const ReplayCounters c_off = w.replay(off);
    untraced_s.push_back(now_s() - t0);
    t0 = now_s();
    c = w.replay(on);
    traced_s.push_back(now_s() - t0);
    r.attempted += 2 * w.size();
    failed += c_off.optimum_mismatches + c.optimum_mismatches;
  }
  const double untraced = median(untraced_s);
  const double traced = median(traced_s);
  const double per_round = 1.0 / static_cast<double>(rounds);

  const bool wrote = !out.empty() && on.write_chrome_trace(out);
  std::printf("spans recorded %llu over %zu rounds, written %llu%s%s\n",
              static_cast<unsigned long long>(on.spans_recorded()), rounds,
              static_cast<unsigned long long>(on.spans_written()),
              wrote ? " to " : "", wrote ? out.c_str() : "");
  std::printf("replay optimum matches engine on %zu of %zu queries\n",
              w.size() - c.optimum_mismatches, w.size());
  std::printf("%-22s %14s %14s\n", "work counter", "engine", "replay");
  const auto row = [](const char* n, std::size_t eng, std::size_t rep) {
    std::printf("%-22s %14zu %14zu\n", n, eng, rep);
  };
  row("evaluated", e.evaluated, c.evaluated);
  row("bound_pruned", e.bound_pruned, c.bound_pruned);
  row("memory_pruned", e.memory_pruned, c.memory_pruned);
  row("signature_compiles", e.signature_compiles + e.serve_compiles,
      c.signature_compiles);
  row("build_layer_calls", e.build_layer_calls, c.build_layer_calls);
  row("shapes_pruned", e.shapes_pruned, c.shapes_pruned);
  std::printf("tracing overhead %.3f ms (median traced %.3f s, untraced "
              "%.3f s, over %zu replay rounds)\n",
              (traced - untraced) * 1e3, traced, untraced, rounds);

  r.failed = failed;
  r.correct = failed == 0 && counters_repeat;

  const auto& totals = on.totals();
  for (std::size_t l = 0; l < perfbench::kLayerCount; ++l) {
    if (static_cast<Layer>(l) == Layer::kQuery) continue;
    const std::string name = perfbench::layer_name(static_cast<Layer>(l));
    r.add(name + ".calls", static_cast<double>(totals[l].calls) * per_round,
          "count");
    r.add(name + ".self_ms",
          static_cast<double>(totals[l].self_ns()) / 1e6 * per_round, "ms");
  }
  const auto& time = totals[static_cast<std::size_t>(Layer::kTime)];
  r.add("core.time.ns_per_placement",
        ratio(static_cast<double>(time.self_ns()) * per_round,
              static_cast<double>(c.placements_timed)),
        "ns");
  // Span counts cover all rounds, like the Chrome trace sample.
  r.add("trace.spans_recorded", static_cast<double>(on.spans_recorded()),
        "count");
  r.add("trace.spans_written", static_cast<double>(on.spans_written()),
        "count");
  r.add("trace.overhead_ms", (traced - untraced) * 1e3, "ms");
  r.add("replay.untraced_ms", untraced * 1e3, "ms");
  r.add("replay.optimum_mismatches",
        static_cast<double>(c.optimum_mismatches), "count");
  r.add("replay.evaluated", static_cast<double>(c.evaluated), "count");
  r.add("replay.signature_compiles", static_cast<double>(c.signature_compiles),
        "count");

  const double pruned =
      static_cast<double>(e.bound_pruned + e.memory_pruned);
  const double sig_total =
      static_cast<double>(e.signature_compiles + e.signature_served);
  const double layer_total =
      static_cast<double>(e.build_layer_calls + e.layer_cache_hits);
  r.add("search.evaluated", static_cast<double>(e.evaluated), "count");
  r.add("search.bound_pruned", static_cast<double>(e.bound_pruned), "count");
  r.add("search.memory_pruned", static_cast<double>(e.memory_pruned), "count");
  r.add("search.prune_ratio",
        ratio(pruned, static_cast<double>(e.candidate_visits)), "ratio");
  r.add("core.signature_compiles",
        static_cast<double>(e.signature_compiles + e.serve_compiles), "count");
  r.add("core.compile_hit_rate",
        ratio(static_cast<double>(e.signature_served), sig_total), "ratio");
  r.add("parallel.build_layer_calls", static_cast<double>(e.build_layer_calls),
        "count");
  r.add("search.layer_hit_rate",
        ratio(static_cast<double>(e.layer_cache_hits), layer_total), "ratio");
  r.add("core.batch_placements", static_cast<double>(e.batch_placements),
        "count");
  r.add("core.batch_occupancy",
        ratio(static_cast<double>(e.batch_placements),
              static_cast<double>(e.batch_calls)),
        "ratio");
  r.add("search.warm_seed_feasible_ratio",
        ratio(static_cast<double>(e.warm_seed_feasible),
              static_cast<double>(e.warm_seeded)),
        "ratio");
  r.add("codesign.shape_prune_ratio",
        ratio(static_cast<double>(e.shapes_pruned),
              static_cast<double>(e.shape_points)),
        "ratio");
  r.add("serve.signature_reuse_ratio",
        ratio(static_cast<double>(e.serve_reuses),
              static_cast<double>(e.serve_compiles + e.serve_reuses)),
        "ratio");
  r.add("sweep.enumerate_busy_s", e.profile.enumerate_s, "s");
  r.add("sweep.compile_busy_s", e.profile.compile_s, "s");
  if (w.threads() > 1) {
    r.add("sweep.compile_busy_s_1t", compile_busy_1t, "s");
  }
  r.add("sweep.time_busy_s", e.profile.time_s, "s");
  r.add("sweep.overlap",
        ratio(e.profile.enumerate_s + e.profile.compile_s + e.profile.time_s,
              e.profile.wall_s),
        "ratio");
  return r;
}

/// Pin the process to `n` CPUs (the highest-numbered ones it may use).
/// The engines' worker pools hand work between threads at every round; on
/// a virtual machine, waking a halted virtual CPU for each hand-off adds a
/// host-dependent delay that has nothing to do with the planner, and
/// keeping the client and its workers on as many CPUs as the workload has
/// threads removes it.
void pin_to_cpus(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  unsigned taken = 0;
  for (std::size_t cpu = CPU_SETSIZE; cpu-- > 0 && taken < n;) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (taken == n && sched_setaffinity(0, sizeof(pinned), &pinned) == 0) {
    std::printf("pinned to %u CPU%s\n", n, n == 1 ? "" : "s");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:");
  for (const auto& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return usage();
  }
  try {
    auto w = perfbench::make_workload(args["workload"]);
    if (!w) return usage();
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    const bool trace = args["trace"] == "1";
    if (w->threads() > 1) pin_to_cpus(w->threads());
    std::printf("workload %s, seed %llu, %s\n", args["workload"].c_str(),
                static_cast<unsigned long long>(seed),
                trace ? "traced replay" : "end to end");
    const Report r = trace ? run_traced(*w, seed, args["trace-out"])
                           : run_end_to_end(*w, seed, seconds);
    print_report(r);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
