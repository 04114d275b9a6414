#include "core/method_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "../model_body_test_util.hpp"

namespace csm::core {
namespace {

common::Matrix wave_matrix(std::size_t n, std::size_t t) {
  common::Rng rng(99);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.05 * static_cast<double>(c) +
                         0.7 * static_cast<double>(r)) +
                0.1 * rng.gaussian();
    }
  }
  return s;
}

MethodRegistry cs_registry() {
  MethodRegistry r;
  register_cs_method(r);
  return r;
}

TEST(MethodSpec, ParsesBareName) {
  const MethodSpec spec = MethodSpec::parse("tuncer");
  EXPECT_EQ(spec.name, "tuncer");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.to_string(), "tuncer");
}

TEST(MethodSpec, ParsesParamsAndFlags) {
  const MethodSpec spec = MethodSpec::parse("cs:blocks=20,real-only");
  EXPECT_EQ(spec.name, "cs");
  EXPECT_EQ(spec.get_size_t("blocks", 0), 20u);
  EXPECT_TRUE(spec.get_flag("real-only"));
  EXPECT_FALSE(spec.get_flag("absent"));
  EXPECT_EQ(spec.to_string(), "cs:blocks=20,real-only");
}

TEST(MethodSpec, NormalisesCaseAndWhitespace) {
  const MethodSpec spec = MethodSpec::parse("  CS : Blocks = 20 ");
  EXPECT_EQ(spec.name, "cs");
  EXPECT_EQ(spec.get("blocks"), "20");
}

TEST(MethodSpec, ExplicitBooleanValues) {
  EXPECT_FALSE(MethodSpec::parse("cs:real-only=0").get_flag("real-only"));
  EXPECT_TRUE(MethodSpec::parse("cs:real-only=true").get_flag("real-only"));
  EXPECT_THROW(MethodSpec::parse("cs:real-only=maybe").get_flag("real-only"),
               std::invalid_argument);
}

TEST(MethodSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(MethodSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse(":blocks=2"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs!"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs:,"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs:=5"), std::invalid_argument);
  EXPECT_THROW(MethodSpec::parse("cs:blocks=1,blocks=2"),
               std::invalid_argument);
}

TEST(MethodSpec, RejectsNonNumericValues) {
  const MethodSpec spec = MethodSpec::parse("cs:blocks=many");
  EXPECT_THROW(spec.get_size_t("blocks", 0), std::invalid_argument);
}

TEST(MethodSpec, ExpectOnlyNamesTheOffendingKey) {
  const MethodSpec spec = MethodSpec::parse("cs:blocs=20");
  try {
    spec.expect_only({"blocks", "real-only"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("blocs"), std::string::npos);
  }
}

TEST(MethodRegistry, RejectsDuplicateAndUnknownKeys) {
  MethodRegistry registry = cs_registry();
  EXPECT_TRUE(registry.contains("cs"));
  EXPECT_THROW(register_cs_method(registry), std::invalid_argument);
  try {
    (void)registry.create("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("cs"), std::string::npos);  // Lists known keys.
  }
}

TEST(MethodRegistry, CreateRejectsUnknownParameters) {
  const MethodRegistry registry = cs_registry();
  EXPECT_THROW((void)registry.create("cs:bogus=1"), std::invalid_argument);
}

TEST(MethodRegistry, CsPrototypeLifecycle) {
  const MethodRegistry registry = cs_registry();
  const auto prototype = registry.create("cs:blocks=6,real-only");
  EXPECT_EQ(prototype->name(), "CS-6-R");
  EXPECT_FALSE(prototype->trained());
  EXPECT_EQ(prototype->n_sensors(), 0u);
  EXPECT_EQ(prototype->signature_length(12), 6u);  // Real-only: l, not 2l.
  const common::Matrix window = wave_matrix(8, 30);
  EXPECT_THROW((void)prototype->compute(window), std::logic_error);
  EXPECT_THROW((void)codec::encode_text(*prototype), std::logic_error);

  const auto trained = prototype->fit(wave_matrix(8, 200));
  EXPECT_TRUE(trained->trained());
  EXPECT_EQ(trained->n_sensors(), 8u);
  EXPECT_EQ(trained->compute(window).size(), 6u);
}

TEST(MethodRegistry, CsSerializeRoundTripsExactly) {
  const MethodRegistry registry = cs_registry();
  const common::Matrix history = wave_matrix(7, 150);
  const auto trained = registry.create("cs:blocks=3")->fit(history);
  const auto revived = registry.deserialize(codec::encode_text(*trained));
  EXPECT_EQ(revived->name(), trained->name());
  const common::Matrix window = wave_matrix(7, 25);
  EXPECT_EQ(revived->compute(window), trained->compute(window));
}

TEST(MethodRegistry, DeserializeRejectsMalformedText) {
  const MethodRegistry registry = cs_registry();
  EXPECT_THROW((void)registry.deserialize("garbage"), std::runtime_error);
  EXPECT_THROW((void)registry.deserialize("csmethod v2 cs\n"),
               std::runtime_error);
  test_util::expect_rejected(
      [&] { return registry.deserialize("csmethod v2 unknown\nbody"); },
      "unknown method tag \"unknown\"");
  // Well-formed header, malformed CS body.
  test_util::expect_rejected(
      [&] { return registry.deserialize("csmethod v2 cs\nblocks x\n"); },
      "\"blocks\" is not an unsigned integer");
  // Truncated body: the bounds stop after "lo".
  test_util::expect_body_rejected(
      registry, "cs",
      [](codec::Sink& s) {
        s.size("blocks", 3);
        s.flag("real-only", false);
        s.u64_array("perm", std::vector<std::uint64_t>{1, 0});
        s.f64_array("lo", std::vector<double>{0.0, 0.0});
      },
      "\"hi\"");
  // Bounds arrays shorter than the permutation.
  test_util::expect_body_rejected(
      registry, "cs",
      [](codec::Sink& s) {
        s.size("blocks", 3);
        s.flag("real-only", false);
        s.u64_array("perm", std::vector<std::uint64_t>{1, 0});
        s.f64_array("lo", std::vector<double>{0.0});
        s.f64_array("hi", std::vector<double>{1.0});
      },
      "bounds arrays do not match the permutation length");
}

TEST(MethodRegistry, OnlyV2TextHeadersLoad) {
  // The v1 text formats of earlier releases have no reader any more.
  const MethodRegistry registry = cs_registry();
  for (const char* text :
       {"csmethod v1 cs\nblocks 3\nreal-only 0\ncsmodel v1\n1\n0 0 1\n",
        "csmodel v1\n1\n0 0 1\n", "csmethod v3 cs\n"}) {
    test_util::expect_rejected([&] { return registry.deserialize(text); },
                               "bad header");
  }
}

TEST(MethodRegistry, LoadMissingFileThrows) {
  const MethodRegistry registry = cs_registry();
  EXPECT_THROW((void)registry.load("/nonexistent/method.csm"),
               std::runtime_error);
}

}  // namespace
}  // namespace csm::core
