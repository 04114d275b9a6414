#include "core/cs_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/method_registry.hpp"
#include "core/model_codec.hpp"
#include "core/pipeline.hpp"
#include "core/training.hpp"
#include "../model_body_test_util.hpp"

namespace csm::core {
namespace {

CsModel simple_model() {
  return CsModel({2, 0, 1},
                 {{0.0, 1.0}, {10.0, 20.0}, {-1.0, 1.0}});
}

TEST(CsModel, ConstructorValidatesPermutation) {
  EXPECT_THROW(CsModel({0, 0}, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(CsModel({0, 5}, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(CsModel({0, 1}, {{0, 1}}), std::invalid_argument);
}

TEST(CsModel, SortNormalizesThenPermutes) {
  const CsModel model({1, 0}, {{0.0, 10.0}, {0.0, 2.0}});
  common::Matrix s{{5.0, 10.0}, {1.0, 0.0}};
  const common::Matrix sorted = model.sort(s);
  // Row 0 of output is original row 1 normalised by its bounds [0, 2].
  EXPECT_DOUBLE_EQ(sorted(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(sorted(0, 1), 0.0);
  // Row 1 of output is original row 0 normalised by [0, 10].
  EXPECT_DOUBLE_EQ(sorted(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(sorted(1, 1), 1.0);
}

TEST(CsModel, SortRejectsWrongSensorCount) {
  const CsModel model = simple_model();
  common::Matrix wrong(2, 4);
  EXPECT_THROW(model.sort(wrong), std::invalid_argument);
}

TEST(CsModel, SortClampsOutOfTrainingRange) {
  const CsModel model({0}, {{0.0, 1.0}});
  common::Matrix s{{-5.0, 0.5, 9.0}};
  const common::Matrix sorted = model.sort(s);
  EXPECT_DOUBLE_EQ(sorted(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(sorted(0, 2), 1.0);
}

MethodRegistry cs_registry() {
  MethodRegistry r;
  register_cs_method(r);
  return r;
}

// A "cs" model body in CsSignatureMethod::save() field order.
void write_cs_fields(codec::Sink& s, std::vector<std::uint64_t> perm,
                     std::vector<double> lo, std::vector<double> hi) {
  s.size("blocks", 0);
  s.flag("real-only", false);
  s.u64_array("perm", perm);
  s.f64_array("lo", lo);
  s.f64_array("hi", hi);
}

TEST(CsModel, CodecRejectsStructurallyInvalidBodies) {
  const MethodRegistry registry = cs_registry();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Non-permutation p: duplicate index.
  test_util::expect_body_rejected(
      registry, "cs",
      [](codec::Sink& s) { write_cs_fields(s, {0, 0}, {0, 0}, {1, 1}); },
      "not a valid permutation");
  // Non-permutation p: out-of-range index.
  test_util::expect_body_rejected(
      registry, "cs",
      [](codec::Sink& s) { write_cs_fields(s, {0, 5}, {0, 0}, {1, 1}); },
      "not a valid permutation");
  // NaN bounds must throw, never propagate into sort().
  test_util::expect_body_rejected(
      registry, "cs",
      [&](codec::Sink& s) { write_cs_fields(s, {0}, {nan}, {1}); },
      "non-finite normalisation bounds");
  test_util::expect_body_rejected(
      registry, "cs",
      [&](codec::Sink& s) { write_cs_fields(s, {0}, {0}, {inf}); },
      "non-finite normalisation bounds");
  // Trailing data after a complete body.
  test_util::expect_body_rejected(
      registry, "cs",
      [](codec::Sink& s) {
        write_cs_fields(s, {0}, {0}, {1});
        s.u64("extra", 0);
      },
      "trailing");
  test_util::expect_rejected(
      [&] {
        return registry.deserialize(
            "csmethod v2 cs\nblocks 0\nreal-only 0\nperm 1 0\nlo 1 0\n"
            "hi 1 1\nextra");
      },
      "trailing data");
  // Absurd element count must fail before anything is allocated: in text,
  // and in binary with the largest count a u32 can declare.
  test_util::expect_rejected(
      [&] {
        return registry.deserialize(
            "csmethod v2 cs\nblocks 0\nreal-only 0\nperm 999999999999\n");
      },
      "exceeds the element cap");
  codec::BinarySink binary;
  binary.size("blocks", 0);
  binary.flag("real-only", false);
  binary.u64_array("perm", {});
  std::vector<std::uint8_t> body = binary.body();
  std::fill(body.end() - 4, body.end(), std::uint8_t{0xFF});  // The count.
  test_util::expect_rejected(
      [&] { return registry.decode(codec::frame_record("cs", body)); },
      "exceeds the element cap");
}

TEST(CsModel, DecodeCostDoesNotDependOnTheBlockCount) {
  // fuzz/regressions/model-text/huge-blocks.csmt: `blocks` is a scalar, so
  // a few bytes can declare any count. Decoding must not size anything by
  // it (only a stream's emit state does); a decoder that did would throw
  // std::length_error or std::bad_alloc here instead of a runtime_error.
  const MethodRegistry registry = cs_registry();
  const std::string text =
      "csmethod v2 cs\nblocks 1000000000000000\nreal-only 0\n"
      "perm 3 2 0 1\nlo 3 0 0 0\nhi 3 1 1 1\n";
  const std::unique_ptr<SignatureMethod> method = registry.deserialize(text);
  const auto& cs = dynamic_cast<const CsSignatureMethod&>(*method);
  EXPECT_EQ(cs.options().blocks, 1000000000000000u);
  EXPECT_EQ(codec::encode_text(*method), text);
}

TEST(CsModel, ConstructorRejectsNonFiniteBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(CsModel({0}, {{nan, 1.0}}), std::invalid_argument);
  EXPECT_THROW(CsModel({0}, {{0.0, std::numeric_limits<double>::infinity()}}),
               std::invalid_argument);
}

TEST(CsModel, TrainedModelRoundTripsThroughBothCodecFormats) {
  // The model ships inside a CsSignatureMethod, as text, as a CSMB record
  // and through a file in each format.
  common::Matrix s{{1, 2, 3, 4}, {4, 3, 2, 1}, {2, 2, 8, 1}};
  const CsModel model = train(s);
  const CsSignatureMethod method(
      std::make_shared<const CsPipeline>(model, CsOptions{}));
  const MethodRegistry registry = cs_registry();
  const auto file =
      std::filesystem::temp_directory_path() / "csm_cs_model_test.model";
  std::vector<std::unique_ptr<SignatureMethod>> revived;
  revived.push_back(registry.deserialize(codec::encode_text(method)));
  revived.push_back(registry.decode(codec::encode_binary(method)));
  for (const codec::ModelFormat format :
       {codec::ModelFormat::kText, codec::ModelFormat::kBinary}) {
    save_method(method, file, format);
    revived.push_back(registry.load(file));
  }
  std::filesystem::remove(file);
  for (const auto& back : revived) {
    const CsModel& shipped =
        dynamic_cast<const CsSignatureMethod&>(*back).pipeline()->model();
    EXPECT_EQ(shipped, model);
    // The sort outputs must match exactly.
    EXPECT_EQ(shipped.sort(s), model.sort(s));
  }
}

}  // namespace
}  // namespace csm::core
