#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kEnumerate: return "search.enumerate";
    case Layer::kBounds: return "core.bounds";
    case Layer::kBuildLayer: return "parallel.build_layer";
    case Layer::kCompile: return "core.compile";
    case Layer::kLower: return "core.lower";
    case Layer::kBind: return "core.bind";
    case Layer::kPrice: return "comm.price";
    case Layer::kTime: return "core.time";
    case Layer::kReduce: return "search.reduce";
    case Layer::kServeEstimate: return "core.serve_estimate";
    case Layer::kServeFront: return "search.serve_front";
    case Layer::kShapeFamily: return "model.shape_family";
    case Layer::kQuery: return "query";
  }
  return "?";
}

void Recorder::open(Layer l) {
  stack_.push_back({l, now_ns(), 0, next_id_++});
}

void Recorder::close(std::uint64_t calls) {
  const std::int64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  LayerTotals& t = totals_[static_cast<std::size_t>(o.layer)];
  t.calls += calls;
  t.total_ns += dur;
  t.child_ns += o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  ++recorded_;
  if (sample_.size() < kSampleCap) {
    sample_.push_back({o.start_ns, dur, o.id,
                       stack_.empty() ? 0 : stack_.back().id, request_,
                       o.layer, calls});
  }
}

bool Recorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = sample_.empty() ? 0 : sample_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    const Sampled& s = sample_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%u,\"calls\":%llu}}\n",
                 i == 0 ? "" : ",", layer_name(s.layer),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.id, s.parent,
                 s.request, static_cast<unsigned long long>(s.calls));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
