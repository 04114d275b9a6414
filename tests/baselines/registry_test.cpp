#include "baselines/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baselines/pca.hpp"
#include "common/rng.hpp"
#include "core/method_stream.hpp"
#include "core/model_codec.hpp"
#include "../model_body_test_util.hpp"

namespace csm::baselines {
namespace {

using core::MethodRegistry;
using core::SignatureMethod;
using core::codec::Sink;

common::Matrix wave_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.04 * static_cast<double>(c) +
                         0.9 * static_cast<double>(r)) +
                0.07 * rng.gaussian();
    }
  }
  return s;
}

// One representative spec per registered method, exercising parameters.
const std::map<std::string, std::string>& example_specs() {
  static const std::map<std::string, std::string> specs = {
      {"cs", "cs:blocks=4,real-only"}, {"tuncer", "tuncer"},
      {"bodik", "bodik"},              {"lan", "lan:wr=6"},
      {"pca", "pca:components=3"},
  };
  return specs;
}

TEST(DefaultRegistry, ContainsTheFullLineUp) {
  const MethodRegistry& registry = default_registry();
  EXPECT_EQ(registry.size(), 5u);
  for (const char* key : {"cs", "tuncer", "bodik", "lan", "pca"}) {
    EXPECT_TRUE(registry.contains(key)) << key;
  }
  // Every registered method has an example spec in this test.
  for (const std::string& key : registry.keys()) {
    EXPECT_TRUE(example_specs().count(key))
        << "add an example spec for new method \"" << key << "\"";
  }
}

TEST(DefaultRegistry, EverySpecRoundTripsParseFitSerializeDeserialize) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 10);
  const common::Matrix window = wave_matrix(7, 30, 11);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const core::MethodSpec spec = core::MethodSpec::parse(spec_text);
    EXPECT_EQ(spec.name, key);

    const auto trained = registry.create(spec)->fit(history);
    ASSERT_TRUE(trained->trained());
    const std::vector<double> reference = trained->compute(window);
    EXPECT_EQ(reference.size(), trained->signature_length(window.rows()));

    const auto revived =
        registry.deserialize(core::codec::encode_text(*trained));
    ASSERT_TRUE(revived->trained());
    EXPECT_EQ(revived->name(), trained->name());
    EXPECT_EQ(revived->compute(window), reference);
  }
}

TEST(DefaultRegistry, EverySpecRoundTripsThroughTheBinaryCodec) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 20);
  const common::Matrix window = wave_matrix(7, 30, 21);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const auto trained = registry.create(spec_text)->fit(history);
    const std::vector<double> reference = trained->compute(window);

    const std::vector<std::uint8_t> record = core::codec::encode_binary(*trained);
    ASSERT_TRUE(core::codec::is_binary_record(record));
    EXPECT_EQ(core::codec::parse_record(record).key, key);
    const auto revived = registry.decode(record);
    ASSERT_TRUE(revived->trained());
    EXPECT_EQ(revived->name(), trained->name());
    EXPECT_EQ(revived->compute(window), reference);

    // Re-encoding the revived method must reproduce the record bytes — the
    // binary form is canonical.
    EXPECT_EQ(core::codec::encode_binary(*revived), record);
  }
}

TEST(DefaultRegistry, TextAndBinaryFormsAreInterchangeable) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(7, 180, 22);
  const common::Matrix window = wave_matrix(7, 30, 23);

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    const auto trained = registry.create(spec_text)->fit(history);
    const std::vector<double> reference = trained->compute(window);

    // text -> method -> binary -> method: signatures and text form survive
    // the full cross-format cycle bit-exactly.
    const auto via_text =
        registry.deserialize(core::codec::encode_text(*trained));
    const auto via_both = registry.decode(core::codec::encode_binary(*via_text));
    EXPECT_EQ(via_both->compute(window), reference);
    EXPECT_EQ(core::codec::encode_text(*via_both),
              core::codec::encode_text(*trained));
  }
}

TEST(DefaultRegistry, DecodeRejectsUnknownKeys) {
  const MethodRegistry& registry = default_registry();
  const std::vector<std::uint8_t> record =
      core::codec::frame_record("mystery", {});
  try {
    (void)registry.decode(record);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mystery"), std::string::npos);
  }
}

TEST(DefaultRegistry, EveryMethodStreamsOverTheRingBuffer) {
  const MethodRegistry& registry = default_registry();
  const common::Matrix history = wave_matrix(6, 150, 12);
  const common::Matrix live = wave_matrix(6, 80, 13);
  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;

  for (const auto& [key, spec_text] : example_specs()) {
    SCOPED_TRACE(spec_text);
    std::shared_ptr<const SignatureMethod> method =
        registry.create(spec_text)->fit(history);
    core::MethodStream stream(method, opts, live.rows());
    const auto emitted = stream.push_all(live);
    ASSERT_EQ(emitted.size(), 7u);  // Windows complete at 20, 30, ..., 80.
    for (const auto& features : emitted) {
      EXPECT_EQ(features.size(), method->signature_length(live.rows()));
    }
  }
}

TEST(DefaultRegistry, PrototypeNamesReflectParameters) {
  const MethodRegistry& registry = default_registry();
  EXPECT_EQ(registry.create("cs:blocks=20")->name(), "CS-20");
  EXPECT_EQ(registry.create("cs")->name(), "CS-All");
  EXPECT_EQ(registry.create("cs:blocks=5,real-only")->name(), "CS-5-R");
  EXPECT_EQ(registry.create("tuncer")->name(), "Tuncer");
  EXPECT_EQ(registry.create("pca:components=8")->name(), "PCA-8");
}

TEST(DefaultRegistry, RejectsUnknownParameters) {
  const MethodRegistry& registry = default_registry();
  EXPECT_THROW((void)registry.create("tuncer:wr=3"), std::invalid_argument);
  EXPECT_THROW((void)registry.create("pca:blocks=3"), std::invalid_argument);
  EXPECT_THROW((void)registry.create("lan:wr=0"), std::invalid_argument);
}

TEST(DefaultRegistry, StatelessBodiesMustBeEmpty) {
  const MethodRegistry& registry = default_registry();
  test_util::expect_rejected(
      [&] { return registry.deserialize("csmethod v2 tuncer\nsurprise"); },
      "trailing data");
  test_util::expect_rejected(
      [&] { return registry.deserialize("csmethod v2 lan\nwr 0\n"); },
      "wr must be positive");
  test_util::expect_rejected(
      [&] { return registry.deserialize("csmethod v2 lan\nwr 10\ngarbage"); },
      "trailing data");
  // The same checks through the binary reader as well.
  test_util::expect_body_rejected(
      registry, "tuncer", [](Sink& s) { s.u64("surprise", 1); }, "trailing");
  test_util::expect_body_rejected(
      registry, "bodik", [](Sink& s) { s.u64("surprise", 1); }, "trailing");
  test_util::expect_body_rejected(
      registry, "lan", [](Sink& s) { s.size("wr", 0); },
      "wr must be positive");
  test_util::expect_body_rejected(
      registry, "lan",
      [](Sink& s) {
        s.size("wr", 10);
        s.u64("garbage", 0);
      },
      "trailing");
}

// A "pca" body with the given shapes and one repeated value everywhere.
void write_pca_fields(Sink& s, std::size_t n, std::size_t k, double value) {
  s.size("sensors", n);
  s.size("components", k);
  s.f64_array("means", std::vector<double>(n, value));
  s.f64_array("inv-std", std::vector<double>(n, 1.0));
  s.f64_array("explained", std::vector<double>(k, 1.0));
  s.f64_array("basis", std::vector<double>(k * n, 1.0));
}

TEST(PcaSerialization, RejectsMalformedBodies) {
  const MethodRegistry& registry = default_registry();
  // Truncated body.
  test_util::expect_body_rejected(
      registry, "pca",
      [](Sink& s) {
        s.size("sensors", 3);
        s.size("components", 2);
        s.f64_array("means", std::vector<double>{0.0, 1.0, 2.0});
      },
      "\"inv-std\"");
  // k > n, with every array consistent with the declared shapes.
  test_util::expect_body_rejected(
      registry, "pca", [](Sink& s) { write_pca_fields(s, 1, 2, 0.0); },
      "inconsistent part shapes");
  // NaN coefficients.
  test_util::expect_body_rejected(
      registry, "pca", [](Sink& s) { write_pca_fields(s, 1, 1, std::nan("")); },
      "non-finite means");
  // Arrays that disagree with sensors/components.
  test_util::expect_body_rejected(
      registry, "pca",
      [](Sink& s) {
        s.size("sensors", 2);
        s.size("components", 1);
        s.f64_array("means", std::vector<double>{0.0});
        s.f64_array("inv-std", std::vector<double>{1.0, 1.0});
        s.f64_array("explained", std::vector<double>{1.0});
        s.f64_array("basis", std::vector<double>{1.0, 1.0});
      },
      "field shapes are inconsistent");
  // The well-formed control body decodes.
  core::codec::TextSink ok;
  write_pca_fields(ok, 2, 1, 0.5);
  EXPECT_NO_THROW(
      (void)registry.deserialize(core::codec::text_header("pca") + ok.body()));
}

TEST(PcaSerialization, ModelRoundTripsThroughBothCodecFormats) {
  const common::Matrix history = wave_matrix(5, 120, 14);
  const PcaMethod method(PcaModel::fit(history, 3));
  const MethodRegistry& registry = default_registry();
  const std::unique_ptr<SignatureMethod> revived[] = {
      registry.deserialize(core::codec::encode_text(method)),
      registry.decode(core::codec::encode_binary(method))};
  for (const auto& back : revived) {
    const PcaModel& model = dynamic_cast<const PcaMethod&>(*back).model();
    EXPECT_EQ(model.n_sensors(), method.model().n_sensors());
    EXPECT_EQ(model.n_components(), method.model().n_components());
    EXPECT_EQ(model.means(), method.model().means());
    EXPECT_EQ(model.inv_std(), method.model().inv_std());
    EXPECT_EQ(model.components(), method.model().components());
  }
}

}  // namespace
}  // namespace csm::baselines
