#pragma once
// Span recorder for the traced replay. Every span is aggregated in memory
// (calls, inclusive time and the time covered by child spans, per layer),
// so per-layer totals cover all of the work no matter how many spans a run
// records; only a bounded sample of the spans is kept for the Chrome trace
// file. A disabled recorder makes Span a no-op apart from one branch, which
// is what the untraced replay runs to measure the tracing overhead.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The evaluation spine's layers, in the order the per-layer metrics print.
enum class Layer : std::uint8_t {
  kEnumerate,      // search.enumerate
  kBounds,         // core.bounds
  kBuildLayer,     // parallel.build_layer
  kCompile,        // core.compile
  kLower,          // core.lower
  kBind,           // core.bind
  kPrice,          // comm.price
  kTime,           // core.time
  kReduce,         // search.reduce
  kServeEstimate,  // core.serve_estimate
  kServeFront,     // search.serve_front
  kShapeFamily,    // model.shape_family
  kQuery,          // one replayed query (the root of every other span)
};
inline constexpr std::size_t kLayerCount = 13;

const char* layer_name(Layer l);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  std::int64_t self_ns() const { return total_ns - child_ns; }
};

class Recorder {
 public:
  /// Spans kept for the Chrome trace file; later spans are only counted.
  static constexpr std::size_t kSampleCap = 50000;

  explicit Recorder(bool enabled) : enabled_(enabled) {}

  /// Spans of one replayed query share this identifier.
  void set_request(std::uint32_t id) { request_ = id; }

  const std::array<LayerTotals, kLayerCount>& totals() const {
    return totals_;
  }
  std::uint64_t spans_recorded() const { return recorded_; }
  std::uint64_t spans_written() const { return sample_.size(); }

  /// Write the sampled spans as a Chrome trace-event JSON file. Returns
  /// false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t id;
  };
  struct Sampled {
    std::int64_t start_ns, dur_ns;
    std::uint32_t id, parent, request;
    Layer layer;
    std::uint64_t calls;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void open(Layer l);
  void close(std::uint64_t calls);

  bool enabled_;
  std::uint32_t request_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint64_t recorded_ = 0;
  std::vector<Open> stack_;
  std::array<LayerTotals, kLayerCount> totals_{};
  std::vector<Sampled> sample_;
};

/// RAII span around one call (or one batch of `calls` calls) into a layer.
class Span {
 public:
  Span(Recorder& r, Layer l, std::uint64_t calls = 1)
      : rec_(r), calls_(calls) {
    if (rec_.enabled_) rec_.open(l);
  }
  ~Span() {
    if (rec_.enabled_) rec_.close(calls_);
  }
  /// For spans whose call count is known only after the work ran.
  void set_calls(std::uint64_t calls) { calls_ = calls; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder& rec_;
  std::uint64_t calls_;
};

}  // namespace perfbench
