// Tests for the CLI flag parser.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"

namespace tfpe::util {
namespace {

ArgParser parse(std::initializer_list<const char*> argv,
                const std::set<std::string>& boolean_flags = {}) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv);
  return ArgParser(static_cast<int>(v.size()), v.data(), boolean_flags);
}

TEST(ArgParser, SpaceSeparatedValue) {
  const auto a = parse({"--model", "gpt3-1t"});
  EXPECT_EQ(a.get_or("model", ""), "gpt3-1t");
}

TEST(ArgParser, EqualsSeparatedValue) {
  const auto a = parse({"--gpus=4096"});
  EXPECT_EQ(a.get_int_or("gpus", 0), 4096);
}

TEST(ArgParser, BooleanFlag) {
  const auto a = parse({"--ops", "--model", "x"});
  EXPECT_TRUE(a.has("ops"));
  EXPECT_FALSE(a.has("sensitivity"));
  EXPECT_EQ(a.get_or("model", ""), "x");
}

TEST(ArgParser, BooleanFollowedByFlag) {
  const auto a = parse({"--interleave", "--zero3"});
  EXPECT_TRUE(a.has("interleave"));
  EXPECT_TRUE(a.has("zero3"));
}

TEST(ArgParser, DeclaredBooleanNeverTakesTheNextPositional) {
  // "sweep --arch SPEC" and "sweep SPEC --arch" mean the same command.
  for (const auto& a : {parse({"sweep", "--arch", "spec.tfpe"}, {"arch"}),
                        parse({"sweep", "spec.tfpe", "--arch"}, {"arch"})}) {
    EXPECT_EQ(a.positional(),
              (std::vector<std::string>{"sweep", "spec.tfpe"}));
    EXPECT_EQ(a.get("arch"), std::optional<std::string>(""));
  }
  // So do "lint --strict PATH" and "lint PATH --strict".
  for (const auto& a :
       {parse({"lint", "--strict", "plan.tfpe", "--format", "json"},
              {"strict"}),
        parse({"lint", "plan.tfpe", "--format", "json", "--strict"},
              {"strict"})}) {
    EXPECT_EQ(a.positional(),
              (std::vector<std::string>{"lint", "plan.tfpe"}));
    EXPECT_TRUE(a.has("strict"));
    EXPECT_EQ(a.get_or("format", ""), "json");
  }
}

TEST(ArgParser, UndeclaredFlagTakesTheNextToken) {
  const auto a = parse({"sweep", "--output", "out.csv"}, {"arch"});
  EXPECT_EQ(a.get_or("output", ""), "out.csv");
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"sweep"}));
}

TEST(ArgParser, DeclaredBooleanRejectsAValue) {
  EXPECT_THROW(parse({"--strict=yes"}, {"strict"}), std::invalid_argument);
}

TEST(ArgParser, DoubleParsing) {
  const auto a = parse({"--tokens", "1e12", "--tp-overlap=0.5"});
  EXPECT_DOUBLE_EQ(a.get_double_or("tokens", 0), 1e12);
  EXPECT_DOUBLE_EQ(a.get_double_or("tp-overlap", 0), 0.5);
}

TEST(ArgParser, DefaultsApply) {
  const auto a = parse({});
  EXPECT_EQ(a.get_int_or("gpus", 1024), 1024);
  EXPECT_EQ(a.get(std::string("missing")), std::nullopt);
}

TEST(ArgParser, RejectsMalformedNumbers) {
  const auto a = parse({"--gpus", "many"});
  EXPECT_THROW(a.get_int_or("gpus", 0), std::invalid_argument);
  const auto b = parse({"--tokens", "1e12x"});
  EXPECT_THROW(b.get_double_or("tokens", 0), std::invalid_argument);
}

TEST(ArgParser, PositionalArguments) {
  const auto a = parse({"file1", "--flag", "v", "file2"});
  EXPECT_EQ(a.positional(), (std::vector<std::string>{"file1", "file2"}));
}

TEST(ArgParser, UnusedDetectsTypos) {
  const auto a = parse({"--model", "x", "--tpyo", "y"});
  (void)a.get("model");
  const auto stray = a.unused();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "tpyo");
}

}  // namespace
}  // namespace tfpe::util
