// Tests for the model/system configuration-file loader.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/config_file.hpp"

namespace tfpe::io {
namespace {

ConfigSections parse(const std::string& text) {
  std::istringstream in(text);
  return parse_config(in);
}

TEST(ParseConfig, SectionsAndComments) {
  const auto s = parse(
      "# header comment\n"
      "[model]\n"
      "seq_len = 2048   # trailing comment\n"
      "\n"
      "[system]\n"
      "gpu=b200\n");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.at("model").at("seq_len"), "2048");
  EXPECT_EQ(s.at("system").at("gpu"), "b200");
}

TEST(ParseConfig, RejectsMalformedLines) {
  EXPECT_THROW(parse("[model\n"), std::runtime_error);
  EXPECT_THROW(parse("[model]\nnot a kv pair\n"), std::runtime_error);
  EXPECT_THROW(parse("[model]\n= value\n"), std::runtime_error);
}

TEST(ModelSection, BuildsCustomModel) {
  const auto s = parse(
      "[model]\n"
      "name = my-model\n"
      "seq_len = 4096\n"
      "embed = 1024\n"
      "heads = 16\n"
      "depth = 12\n"
      "kv_heads = 4\n"
      "attention = windowed\n"
      "window = 512\n");
  const auto m = model_from_section(s.at("model"));
  EXPECT_EQ(m.name, "my-model");
  EXPECT_EQ(m.hidden, 4096);  // default 4e
  EXPECT_EQ(m.kv_heads, 4);
  EXPECT_EQ(m.attention, model::AttentionKind::kWindowed);
  EXPECT_EQ(m.attended_len(), 512);
}

TEST(ModelSection, SupportsPresets) {
  const auto s = parse("[model]\npreset = gpt3-1t\n");
  const auto m = model_from_section(s.at("model"));
  EXPECT_EQ(m.name, "GPT3-1T");
  EXPECT_EQ(m.embed, 25600);
}

TEST(ModelSection, RejectsUnknownKeyAndBadValues) {
  EXPECT_THROW(model_from_section(parse("[model]\nseqlen = 4\n").at("model")),
               std::runtime_error);
  EXPECT_THROW(
      model_from_section(parse("[model]\npreset = nope\n").at("model")),
      std::runtime_error);
  EXPECT_THROW(
      model_from_section(
          parse("[model]\nseq_len = 4\nembed = 8\nheads = 3\ndepth = 1\n")
              .at("model")),
      std::runtime_error);  // heads must divide embed
  EXPECT_THROW(
      model_from_section(parse("[model]\nseq_len = x\n").at("model")),
      std::exception);
}

TEST(SystemSection, PresetWithOverrides) {
  const auto s = parse(
      "[system]\n"
      "gpu = a100\n"
      "hbm_gb = 40\n"
      "nvs_domain = 4\n"
      "n_gpus = 512\n"
      "enable_tree = 1\n");
  const auto sys = system_from_section(s.at("system"));
  EXPECT_EQ(sys.gpu.name, "A100");
  EXPECT_DOUBLE_EQ(sys.gpu.hbm_capacity.value(), 40e9);
  EXPECT_DOUBLE_EQ(sys.gpu.tensor_flops.value(), 312e12);  // preset retained
  EXPECT_EQ(sys.nvs_domain, 4);
  EXPECT_EQ(sys.n_gpus, 512);
  EXPECT_TRUE(sys.net.enable_tree);
}

TEST(SystemSection, FullyCustomHardware) {
  const auto s = parse(
      "[system]\n"
      "tensor_tflops = 1000\n"
      "vector_tflops = 100\n"
      "hbm_gb = 256\n"
      "hbm_gbs = 6000\n"
      "nvs_gbs = 600\n"
      "ib_gbs = 50\n"
      "efficiency = 0.8\n"
      "n_gpus = 64\n");
  const auto sys = system_from_section(s.at("system"));
  EXPECT_DOUBLE_EQ(sys.gpu.tensor_flops.value(), 1000e12);
  EXPECT_DOUBLE_EQ(sys.gpu.hbm_capacity.value(), 256e9);
  EXPECT_DOUBLE_EQ(sys.net.efficiency, 0.8);
}

TEST(SystemSection, RejectsUnknownGpuAndKeys) {
  EXPECT_THROW(
      system_from_section(parse("[system]\ngpu = v100\n").at("system")),
      std::runtime_error);
  EXPECT_THROW(
      system_from_section(parse("[system]\nhbm = 80\n").at("system")),
      std::runtime_error);
}

TEST(LoadConfigFile, RoundTrip) {
  const std::string path = "tfpe_test_config.tfpe";
  {
    std::ofstream out(path);
    out << "[model]\npreset = gpt3-175b\n\n"
        << "[system]\ngpu = h200\nn_gpus = 256\n";
  }
  const LoadedConfig loaded = load_config_file(path);
  ASSERT_TRUE(loaded.model.has_value());
  ASSERT_TRUE(loaded.system.has_value());
  EXPECT_EQ(loaded.model->name, "GPT3-175B");
  EXPECT_EQ(loaded.system->n_gpus, 256);
  std::remove(path.c_str());
  EXPECT_THROW(load_config_file("does_not_exist.tfpe"), std::runtime_error);
}

TEST(CodesignSection, BuildsShapeFamilyOptions) {
  Section s;
  s["target_params_b"] = "1000";
  s["tolerance"] = "0.03";
  s["depths"] = "64, 96, 128";
  s["heads"] = "96, 128";
  s["head_dims"] = "128, 160";
  s["aspect_min"] = "1.5";
  s["aspect_max"] = "7";
  s["hidden_multiple"] = "256";
  s["kv_heads"] = "0, 8";
  s["moe_experts"] = "0";
  const model::ShapeFamilyOptions opts = codesign_from_section(s);
  EXPECT_EQ(opts.target_params, 1000000000000);
  EXPECT_DOUBLE_EQ(opts.tolerance, 0.03);
  EXPECT_EQ(opts.depths, (std::vector<std::int64_t>{64, 96, 128}));
  EXPECT_EQ(opts.heads, (std::vector<std::int64_t>{96, 128}));
  EXPECT_EQ(opts.head_dims, (std::vector<std::int64_t>{128, 160}));
  EXPECT_DOUBLE_EQ(opts.aspect_min, 1.5);
  EXPECT_DOUBLE_EQ(opts.aspect_max, 7.0);
  EXPECT_EQ(opts.hidden_multiple, 256);
  EXPECT_EQ(opts.kv_heads, (std::vector<std::int64_t>{0, 8}));

  // Range axes and defaults survive when the lists are absent.
  Section r;
  r["depth_min"] = "32";
  r["depth_max"] = "64";
  r["depth_step"] = "32";
  const model::ShapeFamilyOptions ranged = codesign_from_section(r);
  EXPECT_EQ(ranged.target_params, 0);
  EXPECT_EQ(ranged.depth_min, 32);
  EXPECT_EQ(ranged.depth_max, 64);
  EXPECT_TRUE(ranged.depths.empty());
}

TEST(CodesignSection, RejectsBadValuesAndUnknownKeys) {
  Section s;
  s["target_params_b"] = "-1";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["tolerance"] = "1.5";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["depths"] = "64, zero";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["depths"] = "0";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
  s.clear();
  s["depth_planes"] = "4";
  EXPECT_THROW(codesign_from_section(s), std::runtime_error);
}

TEST(LoadConfigFile, ParsesCodesignSection) {
  const std::string path = "tfpe_test_codesign.tfpe";
  {
    std::ofstream out(path);
    out << "[model]\npreset = gpt3-1t\n\n"
        << "[codesign]\ntolerance = 0.04\ndepths = 96, 128\n";
  }
  const LoadedConfig loaded = load_config_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.codesign.has_value());
  EXPECT_DOUBLE_EQ(loaded.codesign->tolerance, 0.04);
  EXPECT_EQ(loaded.codesign->depths, (std::vector<std::int64_t>{96, 128}));
}

TEST(SweepSection, DefaultsAndTypedAxes) {
  const SweepSpec defaults = sweep_from_section({});
  EXPECT_EQ(defaults.models, (std::vector<std::string>{"gpt3-1t"}));
  EXPECT_EQ(defaults.generations,
            (std::vector<hw::GpuGeneration>{hw::GpuGeneration::B200}));
  EXPECT_EQ(defaults.leaf, 64);
  EXPECT_EQ(defaults.output, "sweep.csv");

  const SweepSpec spec = sweep_from_section(
      parse("[sweep]\nmodel = gpt3-175b, vit-32k\ngpu = a100, h200\n"
            "nvs = 4, 8\noversub = 1, 2.5\nleaf = 16\ngpus = 64, 128\n"
            "strategy = summa, 1d\nbatch = 256\noutput = out.csv\n")
          .at("sweep"));
  EXPECT_EQ(spec.models, (std::vector<std::string>{"gpt3-175b", "vit-32k"}));
  EXPECT_EQ(spec.generations,
            (std::vector<hw::GpuGeneration>{hw::GpuGeneration::A100,
                                            hw::GpuGeneration::H200}));
  EXPECT_EQ(spec.nvs, (std::vector<std::int64_t>{4, 8}));
  EXPECT_EQ(spec.oversub, (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(spec.leaf, 16);
  EXPECT_EQ(spec.gpus, (std::vector<std::int64_t>{64, 128}));
  EXPECT_EQ(spec.strategies,
            (std::vector<parallel::TpStrategy>{parallel::TpStrategy::Summa2D,
                                               parallel::TpStrategy::TP1D}));
  EXPECT_EQ(spec.batches, (std::vector<std::int64_t>{256}));
  EXPECT_EQ(spec.output, "out.csv");
}

TEST(SweepSection, StrategyAllExpandsInPlace) {
  const SweepSpec spec = sweep_from_section({{"strategy", "2d, all"}});
  using parallel::TpStrategy;
  EXPECT_EQ(spec.strategies,
            (std::vector<TpStrategy>{TpStrategy::TP2D, TpStrategy::TP1D,
                                     TpStrategy::TP2D, TpStrategy::Summa2D}));
}

TEST(SweepSection, ErrorsNameTheKeyAndTheEntry) {
  const auto message = [](const Section& s) -> std::string {
    try {
      (void)sweep_from_section(s);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(message({{"gpus", "64, abc"}}),
            "config: [sweep] 'gpus' entry 'abc' must be a positive integer");
  EXPECT_EQ(message({{"nvs", "0"}}),
            "config: [sweep] 'nvs' entry '0' must be a positive integer");
  EXPECT_EQ(message({{"leaf", "x"}}),
            "config: [sweep] 'leaf' entry 'x' must be a positive integer");
  EXPECT_EQ(message({{"batch", ""}}), "config: [sweep] 'batch' is empty");
  EXPECT_EQ(message({{"oversub", "0.5"}}),
            "config: [sweep] 'oversub' entry '0.5' must be a ratio >= 1");
  EXPECT_EQ(message({{"strategy", "3d"}}),
            "config: [sweep] 'strategy' entry '3d' is not a strategy "
            "(1d|2d|summa|all)");
  EXPECT_EQ(message({{"gpu", "k80"}}),
            "config: [sweep] 'gpu' entry 'k80' is not a known gpu preset "
            "(a100|h200|b200)");
  EXPECT_EQ(message({{"model", "gpt5"}}),
            "config: [sweep] 'model' entry 'gpt5' is not a known model "
            "preset");
  EXPECT_EQ(message({{"modle", "vit-64k"}}),
            "config: unknown key 'modle' in [sweep]");
}

TEST(ServingSection, AxesShareThePositiveIntegerDecoder) {
  const auto message = [](const Section& s) -> std::string {
    try {
      (void)serving_from_section(s);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const core::ServingSpec spec =
      serving_from_section({{"tp", "1, 2, 4"}, {"batch", "8"}});
  EXPECT_EQ(spec.tp, (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_EQ(spec.pp, core::ServingSpec{}.pp);
  EXPECT_EQ(spec.batch, (std::vector<std::int64_t>{8}));
  EXPECT_EQ(message({{"tp", "4, abc"}}),
            "config: [serving] 'tp' entry 'abc' must be a positive integer");
  EXPECT_EQ(message({{"pp", "0"}}),
            "config: [serving] 'pp' entry '0' must be a positive integer");
  EXPECT_EQ(message({{"batch", ","}}), "config: [serving] 'batch' is empty");
}

TEST(ScalarKeys, BadNumbersNameTheKeyNotTheParser) {
  const auto message = [](const std::string& text) -> std::string {
    try {
      (void)model_from_section(parse(text).at("model"));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(message("[model]\nseq_len = abc\n"),
            "config: 'seq_len' expects an integer, got 'abc'");
  EXPECT_EQ(message("[model]\nseq_len = 99999999999999999999\n"),
            "config: 'seq_len' expects an integer, got "
            "'99999999999999999999'");
}

TEST(PositiveIntList, NamesTheFlagOnABadEntry) {
  EXPECT_EQ(positive_int_list("--nvs", "4, 8"),
            (std::vector<std::int64_t>{4, 8}));
  try {
    (void)positive_int_list("--nvs", "8, abc");
    ADD_FAILURE() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "--nvs entry 'abc' must be a positive integer");
  }
  EXPECT_THROW(positive_int_list("--nvs", "8x"), std::runtime_error);
  EXPECT_THROW(positive_int_list("--nvs", "-8"), std::runtime_error);
  EXPECT_THROW(positive_int_list("--nvs", ""), std::runtime_error);
}

TEST(NameParsers, RoundTripEveryEnumerator) {
  using parallel::TpStrategy;
  for (const TpStrategy s :
       {TpStrategy::TP1D, TpStrategy::TP2D, TpStrategy::Summa2D}) {
    EXPECT_EQ(parallel::strategy_from_name(parallel::strategy_name(s)), s);
  }
  EXPECT_FALSE(parallel::strategy_from_name("all").has_value());
  EXPECT_FALSE(parallel::strategy_from_name("1D").has_value());
  for (const hw::GpuGeneration g :
       {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
        hw::GpuGeneration::B200}) {
    EXPECT_EQ(hw::generation_from_name(hw::generation_name(g)), g);
  }
  EXPECT_FALSE(hw::generation_from_name("h100").has_value());
}

}  // namespace
}  // namespace tfpe::io
