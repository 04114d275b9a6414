#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/method_stream.hpp"
#include "core/training.hpp"
#include "../cs_method_test_util.hpp"

namespace csm::core {
namespace {

common::Matrix wave_matrix(std::size_t n, std::size_t t, std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix s(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < t; ++c) {
      s(r, c) = std::sin(0.08 * static_cast<double>(c) +
                         0.5 * static_cast<double>(r)) +
                0.05 * rng.gaussian();
    }
  }
  return s;
}

StreamOptions small_options() {
  StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 10;
  return opts;
}

// Asserts that validate() throws std::invalid_argument whose message names
// the offending field, so operators can fix the right knob.
void expect_rejected(const StreamOptions& opts, const std::string& field) {
  try {
    opts.validate();
    FAIL() << "expected std::invalid_argument naming " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message \"" << e.what() << "\" does not name " << field;
  }
}

TEST(StreamOptions, RejectsZeroWindowLengthNamingField) {
  StreamOptions opts = small_options();
  opts.window_length = 0;
  expect_rejected(opts, "window_length");
}

TEST(StreamOptions, RejectsZeroWindowStepNamingField) {
  StreamOptions opts = small_options();
  opts.window_step = 0;
  expect_rejected(opts, "window_step");
}

TEST(StreamOptions, RejectsHistoryTooSmallForSeededWindowNamingField) {
  StreamOptions opts = small_options();
  opts.history_length = opts.window_length;  // Too small for the seed.
  expect_rejected(opts, "history_length");
}

TEST(StreamOptions, RejectsZeroHistoryNamingField) {
  StreamOptions opts = small_options();
  opts.history_length = 0;
  expect_rejected(opts, "history_length");
}

TEST(StreamOptions, HistoryCheckSurvivesWindowLengthOverflow) {
  // window_length + 1 would overflow to 0 and wave the check through; the
  // <= comparison must still reject this contradictory configuration.
  StreamOptions opts = small_options();
  opts.window_length = std::numeric_limits<std::size_t>::max();
  opts.history_length = std::numeric_limits<std::size_t>::max();
  expect_rejected(opts, "history_length");
}

TEST(StreamOptions, AcceptsMinimalLegalHistory) {
  StreamOptions opts = small_options();
  opts.history_length = opts.window_length + 1;
  EXPECT_NO_THROW(opts.validate());
}

// A CS stream is a MethodStream over a trained CsSignatureMethod; these
// pin its emit cadence, offline equivalence and retraining.

constexpr CsOptions kCs{4, false};

MethodStream cs_stream(const CsModel& model, const StreamOptions& opts) {
  return MethodStream(test_util::cs_method(model, kCs), opts);
}

// The live CS model, which a retrain replaces along with the method.
const CsModel& live_model(const MethodStream& stream) {
  return dynamic_cast<const CsSignatureMethod&>(stream.method())
      .pipeline()
      ->model();
}

// A stream whose correlation structure changes halfway: rows 0-2 follow a
// sine in the first half, rows 3-5 in the second.
common::Matrix shifting_matrix(std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = 6;
  common::Matrix s(n, 300);
  for (std::size_t c = 0; c < 300; ++c) {
    const double f = std::sin(0.1 * static_cast<double>(c));
    for (std::size_t r = 0; r < n; ++r) {
      const bool active = c < 150 ? r < 3 : r >= 3;
      s(r, c) = (active ? f : 0.0) + 0.05 * rng.gaussian();
    }
  }
  return s;
}

StreamOptions shifting_options() {
  StreamOptions opts = small_options();
  opts.retrain_interval = 100;
  opts.history_length = 120;
  return opts;
}

TEST(CsMethodStream, EmitsAtWindowBoundaries) {
  const common::Matrix s = wave_matrix(6, 100, 1);
  MethodStream stream = cs_stream(train(s), small_options());
  std::size_t emitted = 0;
  for (std::size_t c = 0; c < 100; ++c) {
    std::vector<double> column(6);
    for (std::size_t r = 0; r < 6; ++r) column[r] = s(r, c);
    const auto sig = stream.push(column);
    if (sig) {
      ++emitted;
      EXPECT_EQ(sig->size(), 2 * 4u);  // Real and derivative channel.
    }
    // First emission exactly when wl samples have arrived.
    if (c + 1 < 20) {
      EXPECT_FALSE(sig.has_value());
    }
    if (c + 1 == 20) {
      EXPECT_TRUE(sig.has_value());
    }
  }
  // Windows at samples 20, 30, ..., 100 -> 9 signatures.
  EXPECT_EQ(emitted, 9u);
  EXPECT_EQ(stream.samples_seen(), 100u);
}

TEST(CsMethodStream, PushAllMatchesPushLoop) {
  const common::Matrix s = wave_matrix(5, 80, 2);
  const CsModel model = train(s);
  MethodStream a = cs_stream(model, small_options());
  MethodStream b = cs_stream(model, small_options());
  const auto batch = a.push_all(s);
  std::vector<std::vector<double>> loop;
  std::vector<double> column(5);
  for (std::size_t c = 0; c < 80; ++c) {
    for (std::size_t r = 0; r < 5; ++r) column[r] = s(r, c);
    if (auto sig = b.push(column)) loop.push_back(std::move(*sig));
  }
  EXPECT_EQ(batch, loop);
}

TEST(CsMethodStream, MatchesOfflinePipeline) {
  // Streaming signatures must match the offline pipeline's output exactly:
  // same sorting, same seeded derivatives.
  const common::Matrix s = wave_matrix(6, 90, 3);
  const CsModel model = train(s);
  const StreamOptions opts = small_options();
  MethodStream stream = cs_stream(model, opts);
  const auto streamed = stream.push_all(s);

  const CsPipeline pipeline(model, kCs);
  const auto offline = pipeline.transform(
      s, data::WindowSpec{opts.window_length, opts.window_step});
  ASSERT_EQ(streamed.size(), offline.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    const std::vector<double> want = offline[i].flatten();
    ASSERT_EQ(streamed[i].size(), want.size());
    for (std::size_t f = 0; f < want.size(); ++f) {
      EXPECT_NEAR(streamed[i][f], want[f], 1e-12)
          << "signature " << i << " feature " << f;
    }
  }
}

TEST(CsMethodStream, BoundedHistory) {
  const common::Matrix s = wave_matrix(4, 500, 4);
  StreamOptions opts = small_options();
  opts.history_length = 25;  // Barely above wl + seed.
  MethodStream stream = cs_stream(train(s), opts);
  const auto sigs = stream.push_all(s);
  EXPECT_GT(sigs.size(), 40u);  // Still emits throughout the stream.
}

TEST(CsMethodStream, RetrainsOnSchedule) {
  const common::Matrix s = wave_matrix(4, 200, 5);
  StreamOptions opts = small_options();
  opts.retrain_interval = 50;
  opts.history_length = 64;
  MethodStream stream = cs_stream(train(s.sub_cols(0, 30)), opts);
  stream.push_all(s);
  EXPECT_EQ(stream.retrain_count(), 4u);  // At samples 50/100/150/200.
}

TEST(CsMethodStream, NoRetrainByDefault) {
  const common::Matrix s = wave_matrix(4, 200, 6);
  MethodStream stream = cs_stream(train(s), small_options());
  stream.push_all(s);
  EXPECT_EQ(stream.retrain_count(), 0u);
}

TEST(CsMethodStream, RetrainedModelDiffersWhenDataShifts) {
  // With retraining enabled the model must adapt to the changed
  // correlation structure (different permutation).
  const common::Matrix s = shifting_matrix(7);
  MethodStream stream =
      cs_stream(train(s.sub_cols(0, 100)), shifting_options());
  const auto before = live_model(stream).permutation();
  stream.push_all(s);
  EXPECT_GT(stream.retrain_count(), 0u);
  EXPECT_NE(live_model(stream).permutation(), before);
}

TEST(CsMethodStream, RetrainReplacesMethodAndLeavesOldModelIntact) {
  // A retrain swaps in a new CsSignatureMethod, whose model carries the new
  // permutation; the method the stream started with is left untouched, so
  // anyone still holding it keeps a consistent model.
  const common::Matrix s = shifting_matrix(9);
  const std::shared_ptr<const SignatureMethod> deployed =
      test_util::cs_method(train(s.sub_cols(0, 100)), kCs);
  MethodStream stream(deployed, shifting_options());
  const auto& deployed_cs = dynamic_cast<const CsSignatureMethod&>(*deployed);
  const auto before = deployed_cs.pipeline()->model().permutation();
  stream.push_all(s);
  EXPECT_GT(stream.retrain_count(), 0u);
  EXPECT_NE(&stream.method(), deployed.get());
  EXPECT_NE(live_model(stream).permutation(), before);
  EXPECT_EQ(deployed_cs.pipeline()->model().permutation(), before);
  // The retrained method keeps the stream's CS options.
  const auto& live = dynamic_cast<const CsSignatureMethod&>(stream.method());
  EXPECT_EQ(live.options().blocks, kCs.blocks);
}

TEST(CsMethodStream, InputValidation) {
  const common::Matrix s = wave_matrix(4, 60, 8);
  MethodStream stream = cs_stream(train(s), small_options());
  const std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(stream.push(wrong), std::invalid_argument);
  EXPECT_THROW(stream.push_all(common::Matrix(5, 10)),
               std::invalid_argument);
}

}  // namespace
}  // namespace csm::core
