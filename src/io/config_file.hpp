#pragma once
// Plain-text configuration files for custom models and systems, so users
// can describe their own foundation model / cluster without recompiling:
//
//   # comments and blank lines are ignored
//   [model]
//   name = my-foundation-model
//   seq_len = 16384
//   embed = 8192
//   heads = 64
//   depth = 32
//   hidden = 32768        # optional, default 4*embed
//   kv_heads = 8          # optional (GQA)
//   attention = windowed  # full | windowed | linear
//   window = 4096
//   moe_experts = 64      # optional
//   moe_top_k = 2
//
//   [system]
//   gpu = b200            # preset, or give the fields below
//   tensor_tflops = 2500
//   vector_tflops = 339
//   hbm_gb = 192
//   hbm_gbs = 8000
//   nvs_gbs = 900
//   ib_gbs = 100
//   nvs_domain = 8
//   n_gpus = 4096
//
//   [codesign]                     # iso-parameter shape-family options
//   target_params_b = 1000         # parameter budget [billions];
//                                  # 0/absent = the [model]'s total
//   tolerance = 0.02               # relative band around the target
//   depth_min = 32                 # range axes (inclusive, with step)...
//   depth_max = 160
//   depth_step = 16
//   depths = 48, 96, 192           # ...or an explicit list (wins over range)
//   heads_min = 32
//   heads_max = 256
//   heads_step = 16
//   heads = 64, 96
//   head_dims = 128, 160
//   aspect_min = 2.0               # admitted f/e window
//   aspect_max = 6.0
//   hidden_multiple = 128
//   kv_heads = 0, 8                # 0 = MHA
//   moe_experts = 0                # 0 = dense
//
//   [serving]                      # serve-plan grid (core::ServingSpec)
//   prompt_len = 2048              # input sequence length (ISL)
//   output_len = 256               # generated tokens per request (OSL)
//   tp = 1, 2, 4, 8                # tensor-parallel widths to sweep
//   pp = 1, 2                      # pipeline depths to sweep
//   batch = 1, 8, 32, 128          # requested resident requests
//   kv_cap_fraction = 0.9          # HBM share the KV cache may occupy
//   max_batch = 0                  # scheduler cap; 0 = uncapped
//
//   [sweep]                        # `tfpe sweep` grid (io::SweepSpec)
//   model = gpt3-1t, vit-64k       # model presets
//   gpu = a100, b200               # GPU generation presets
//   nvs = 4, 8, 64                 # NVS-domain sizes
//   oversub = 1, 4                 # spine oversubscription (1 = two-level)
//   leaf = 64                      # leaf-pod GPUs for oversub > 1 points
//   gpus = 1024, 4096, 16384       # total GPU counts
//   strategy = 1d, 2d, summa       # TP strategies; `all` = all three
//   batch = 4096                   # global batches
//   output = sweep.csv             # CSV path (tfpe sweep --output wins)
//
//   [topology]                     # optional hierarchical fabric override
//   levels = nvs, leaf, spine      # innermost first
//   fan_in = 8, 4, 16              # children per element; 0 = unbounded top
//   latency_us = 0.3, 2.5, 5.0     # per-hop latency [us]
//   gbs = 900, 50, 50              # per-link bandwidth [GB/s]
//   rails = 1, 8, 8                # optional NIC rails, default 1
//   pod_size = 0, 0, 1024          # optional oversubscription gate
//   oversubscription = 1, 1, 4     # optional taper ratio, default 1
//   efficiency = 0.7               # scalar knobs (achievable fraction)
//   enable_tree = 0
//   enable_ll = 0
//   enable_hierarchical = 0
//
// Unknown keys are errors (typo protection). Every section may be absent.
// A [topology] section is attached to the [system] as its resolved fabric
// (hw::SystemConfig::fabric); per-level lists must all have one entry per
// named level.

#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "hw/system.hpp"
#include "model/shape_family.hpp"
#include "model/transformer.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::io {

using Section = std::map<std::string, std::string>;
using ConfigSections = std::map<std::string, Section>;

/// Parse "[section]" / "key = value" syntax. Throws std::runtime_error with
/// a line number on malformed input.
ConfigSections parse_config(std::istream& in);

/// 1-based source lines of one section: the header and each key's line
/// (last occurrence when a key repeats, matching the parsed value).
struct SectionLocations {
  int line = 0;                    ///< "[section]" header line; 0 = implicit.
  std::map<std::string, int> keys;
};
using ConfigLocations = std::map<std::string, SectionLocations>;

/// As above, additionally recording where each section and key was defined
/// (for line-accurate schema diagnostics; `locations` may be null).
ConfigSections parse_config(std::istream& in, ConfigLocations* locations);

/// Build a validated TransformerConfig from a [model] section.
model::TransformerConfig model_from_section(const Section& s);

/// Build a SystemConfig from a [system] section. Preset fields may be
/// overridden by explicit values.
hw::SystemConfig system_from_section(const Section& s);

/// Build a fabric Topology from a [topology] section. Throws
/// std::runtime_error on mismatched list lengths, non-positive bandwidths /
/// rails, oversubscription < 1 or depth > hw::Topology::kMaxDepth.
hw::Topology topology_from_section(const Section& s);

/// Serialize a fabric back into [topology]-section form; round-trips
/// exactly through topology_from_section.
Section topology_to_section(const hw::Topology& topo);

/// Build shape-family options from a [codesign] section (target_params_b is
/// given in BILLIONS of parameters). Throws std::runtime_error on values
/// model::shape_family would reject — the same conditions io/config_lint
/// reports as TFPE-CODESIGN diagnostics.
model::ShapeFamilyOptions codesign_from_section(const Section& s);

/// Build a serve-plan grid from a [serving] section. Throws
/// std::runtime_error on non-positive lengths/axis entries, an empty axis
/// list, or kv_cap_fraction outside (0, 1] — the same conditions
/// io/config_lint reports as TFPE-CFG-004 diagnostics.
core::ServingSpec serving_from_section(const Section& s);

/// The typed axes of a [sweep] section; an absent key keeps its default.
/// `tfpe sweep` runs the cross product in member order (models outermost,
/// batches innermost), one CSV row per point.
struct SweepSpec {
  std::vector<std::string> models{"gpt3-1t"};  ///< model preset names
  std::vector<hw::GpuGeneration> generations{hw::GpuGeneration::B200};
  std::vector<std::int64_t> nvs{8};
  std::vector<double> oversub{1.0};  ///< spine ratio; 1 = two-level fabric
  std::int64_t leaf = 64;            ///< leaf-pod GPUs for oversub > 1
  std::vector<std::int64_t> gpus{1024};
  std::vector<parallel::TpStrategy> strategies{parallel::TpStrategy::TP1D};
  std::vector<std::int64_t> batches{4096};
  std::string output = "sweep.csv";
};

/// Build sweep axes from a [sweep] section — the one decoder of [sweep]
/// values. `strategy = all` expands in place to 1d, 2d, summa. Throws
/// std::runtime_error on an unknown key, an empty list or a bad entry,
/// naming the key and the entry: unknown model / gpu preset or strategy,
/// a non-positive nvs / gpus / batch / leaf, or an oversub below 1.
SweepSpec sweep_from_section(const Section& s);

/// Decode a comma-separated list of positive integers (a [sweep] axis or a
/// list-valued CLI flag). Throws std::runtime_error "<what> entry '<item>'
/// must be a positive integer" on the first bad entry, or "<what> is
/// empty".
std::vector<std::int64_t> positive_int_list(const std::string& what,
                                            const std::string& value);

struct LoadedConfig {
  std::optional<model::TransformerConfig> model;
  std::optional<hw::SystemConfig> system;
  /// Parsed [topology], also attached to system->fabric when both exist.
  std::optional<hw::Topology> topology;
  /// Parsed [codesign] shape-family options (tfpe codesign's --config path).
  std::optional<model::ShapeFamilyOptions> codesign;
  /// Parsed [serving] grid (tfpe serve-plan's --config path).
  std::optional<core::ServingSpec> serving;
  /// Parsed [sweep] axes (tfpe sweep's spec).
  std::optional<SweepSpec> sweep;
};

/// Parse a whole file; throws std::runtime_error if it cannot be read.
LoadedConfig load_config_file(const std::string& path);

}  // namespace tfpe::io
