// Property-based suites: parameterised sweeps over shapes and seeds that
// assert the library's structural invariants rather than specific values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/pca.hpp"
#include "baselines/registry.hpp"
#include "common/ring_matrix.hpp"
#include "common/rng.hpp"
#include "core/method_stream.hpp"
#include "core/model_codec.hpp"
#include "core/pipeline.hpp"
#include "core/smoothing.hpp"
#include "core/streaming.hpp"
#include "core/training.hpp"
#include "ml/splits.hpp"
#include "stats/correlation.hpp"
#include "stats/divergence.hpp"
#include "stats/interpolate.hpp"
#include "stats/normalize.hpp"
#include "../cs_method_test_util.hpp"

namespace csm {
namespace {

common::Matrix random_matrix(std::size_t n, std::size_t t,
                             std::uint64_t seed) {
  common::Rng rng(seed);
  common::Matrix m(n, t);
  for (std::size_t r = 0; r < n; ++r) {
    const double offset = rng.uniform(-5.0, 5.0);
    const double scale = rng.uniform(0.5, 20.0);
    const double freq = rng.uniform(0.01, 0.3);
    for (std::size_t c = 0; c < t; ++c) {
      m(r, c) = offset +
                scale * std::sin(freq * static_cast<double>(c)) +
                0.3 * rng.gaussian();
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Block scheme properties (Eq. 2) over an (n, l) grid.

class BlockSchemeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BlockSchemeProperty, CoversEverySensorExactly) {
  const auto [n, l] = GetParam();
  std::vector<int> coverage(n, 0);
  for (std::size_t i = 0; i < l; ++i) {
    const core::BlockRange r = core::block_range(i, l, n);
    ASSERT_LE(r.end, n);
    ASSERT_LT(r.begin, r.end);
    for (std::size_t k = r.begin; k < r.end; ++k) ++coverage[k];
  }
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_GE(coverage[k], 1) << "sensor " << k << " uncovered";
  }
}

TEST_P(BlockSchemeProperty, RangesAreMonotone) {
  const auto [n, l] = GetParam();
  for (std::size_t i = 1; i < l; ++i) {
    const core::BlockRange prev = core::block_range(i - 1, l, n);
    const core::BlockRange cur = core::block_range(i, l, n);
    EXPECT_LE(prev.begin, cur.begin);
    EXPECT_LE(prev.end, cur.end);
  }
}

TEST_P(BlockSchemeProperty, OverlapAtMostOneSensor) {
  const auto [n, l] = GetParam();
  if (l > n) GTEST_SKIP() << "duplicated sensors expected when l > n";
  for (std::size_t i = 1; i < l; ++i) {
    const core::BlockRange prev = core::block_range(i - 1, l, n);
    const core::BlockRange cur = core::block_range(i, l, n);
    // Eq. 2 shares at most the single boundary sensor.
    EXPECT_LE(prev.end - cur.begin, 1u);
  }
}

TEST_P(BlockSchemeProperty, OverlapExactlyMatchesEq2) {
  // Quantify the "partially overlapping ranges" of Eq. 2: consecutive
  // blocks i-1 and i share exactly one boundary sensor iff l does not
  // divide i*n, and never more than one. In particular the blocks tile the
  // sensor rows disjointly whenever l | n.
  const auto [n, l] = GetParam();
  if (l > n) GTEST_SKIP() << "duplicated sensors expected when l > n";
  std::size_t total_overlap = 0;
  std::size_t total_size = 0;
  for (std::size_t i = 0; i < l; ++i) {
    total_size += core::block_range(i, l, n).size();
    if (i == 0) continue;
    const core::BlockRange prev = core::block_range(i - 1, l, n);
    const core::BlockRange cur = core::block_range(i, l, n);
    const std::size_t overlap =
        prev.end > cur.begin ? prev.end - cur.begin : 0;
    EXPECT_EQ(overlap, (i * n) % l != 0 ? 1u : 0u)
        << "blocks " << i - 1 << "/" << i << " of l=" << l << " n=" << n;
    total_overlap += overlap;
  }
  // Coverage accounting: sizes sum to n plus one sensor per overlap, and
  // disjoint tiling is recovered exactly when l | n.
  EXPECT_EQ(total_size, n + total_overlap);
  if (n % l == 0) {
    EXPECT_EQ(total_overlap, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockSchemeProperty,
    ::testing::Combine(::testing::Values(1, 2, 5, 10, 16, 47, 52, 128, 831),
                       ::testing::Values(1, 2, 5, 10, 20, 40, 160)));

// ---------------------------------------------------------------------------
// Training properties over random matrices.

class TrainingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrainingProperty, PermutationValidAndDeterministic) {
  const common::Matrix s = random_matrix(24, 150, GetParam());
  const core::CsModel a = core::train(s);
  const core::CsModel b = core::train(s);
  EXPECT_EQ(a.permutation(), b.permutation());
  std::set<std::size_t> seen(a.permutation().begin(), a.permutation().end());
  EXPECT_EQ(seen.size(), 24u);
}

TEST_P(TrainingProperty, SortedOutputAlwaysInUnitInterval) {
  const common::Matrix s = random_matrix(16, 120, GetParam());
  const core::CsModel model = core::train(s);
  const common::Matrix sorted = model.sort(s);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_GE(sorted.data()[i], 0.0);
    EXPECT_LE(sorted.data()[i], 1.0);
  }
}

TEST_P(TrainingProperty, NeighborCorrelationImprovedBySorting) {
  // The greedy ordering must, on average, place more-correlated rows next
  // to each other than the raw order does.
  const common::Matrix s = random_matrix(20, 200, GetParam());
  const common::Matrix shifted = stats::shifted_correlation_matrix(s);
  const core::CsModel model = core::train(s);
  const auto& p = model.permutation();
  double sorted_adjacency = 0.0, raw_adjacency = 0.0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    sorted_adjacency += shifted(p[i - 1], p[i]);
    raw_adjacency += shifted(i - 1, i);
  }
  EXPECT_GE(sorted_adjacency, raw_adjacency - 1e-9);
}

TEST_P(TrainingProperty, SignatureInvariantToSensorOrder) {
  // Portability property: permuting the input sensors (and retraining)
  // must not change the *set* of achievable signatures materially. We check
  // the stronger, exact property that sorting undoes a relabeling when the
  // permutation applied is the model's own inverse ordering.
  const common::Matrix s = random_matrix(12, 150, GetParam());
  const core::CsModel model = core::train(s);
  const common::Matrix sorted_once = model.sort(s);

  // Re-train on the already sorted matrix: the dominant sensor group should
  // stay grouped, so re-sorting changes adjacency structure by little. We
  // assert the weaker invariant that the re-trained permutation is valid
  // and the resort stays within [0, 1].
  const core::CsModel model2 = core::train(sorted_once);
  const common::Matrix sorted_twice = model2.sort(sorted_once);
  for (std::size_t i = 0; i < sorted_twice.size(); ++i) {
    EXPECT_GE(sorted_twice.data()[i], 0.0);
    EXPECT_LE(sorted_twice.data()[i], 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainingProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Smoothing properties.

class SmoothingProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SmoothingProperty, RealChannelBoundedByWindowExtrema) {
  const auto [n, l] = GetParam();
  const common::Matrix s = random_matrix(n, 60, n * 131 + l);
  const auto bounds = stats::row_bounds(s);
  const common::Matrix norm = stats::normalize_rows(s, bounds);
  const core::Signature sig = core::smooth(norm, l);
  for (double v : sig.real()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_P(SmoothingProperty, MeanOfSignatureEqualsMeanOfMatrixWhenDisjoint) {
  const auto [n, l] = GetParam();
  if (n % l != 0) GTEST_SKIP() << "exact only for disjoint equal blocks";
  const common::Matrix s = random_matrix(n, 40, n * 7 + l);
  const core::Signature sig = core::smooth(s, l);
  double sig_mean = 0.0;
  for (double v : sig.real()) sig_mean += v;
  sig_mean /= static_cast<double>(l);
  double mat_mean = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) mat_mean += s.data()[i];
  mat_mean /= static_cast<double>(s.size());
  EXPECT_NEAR(sig_mean, mat_mean, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SmoothingProperty,
    ::testing::Combine(::testing::Values(8, 12, 20, 40),
                       ::testing::Values(1, 2, 4, 5, 8, 10, 13)));

// ---------------------------------------------------------------------------
// Streaming equivalence: with retraining disabled, a CS MethodStream must
// produce bit-for-bit the same signatures as the offline pipeline over the same
// data, for any history length — including ones small enough that the ring
// buffer wraps many times mid-stream.

class StreamEquivalenceProperty
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(StreamEquivalenceProperty, StreamMatchesOfflinePipeline) {
  const auto [n, history, seed] = GetParam();
  const std::size_t t = 160;
  const common::Matrix s = random_matrix(n, t, seed);
  const core::CsModel model = core::train(s);

  const core::CsOptions cs{5, false};

  core::StreamOptions opts;
  opts.window_length = 20;
  opts.window_step = 7;
  opts.history_length = history;  // retrain_interval stays 0.
  core::MethodStream stream(test_util::cs_method(model, cs), opts);
  const auto streamed = stream.push_all(s);

  const core::CsPipeline pipeline(model, cs);
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

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamEquivalenceProperty,
    ::testing::Combine(::testing::Values(4, 11, 24),
                       // wl + 1 (minimum legal, wraps every push once full),
                       // a mid-size ring, and one larger than the stream.
                       ::testing::Values(21, 40, 1024),
                       ::testing::Values(3, 17)));

// ---------------------------------------------------------------------------
// View-vs-copy streaming equivalence: for EVERY registry method, the
// zero-copy MethodStream path (windows read in place as ring-segment
// MatrixViews) must emit byte-identical feature vectors to the seed's
// copy-based path, which assembled each window with copy_latest into a
// dense matrix before calling compute_streaming. The reference below
// reproduces that copy-based loop verbatim. Randomised wl/ws/history
// combinations include history = wl + 1, where every window straddles the
// ring wrap point once the buffer is full.

class ViewVsCopyStreamProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t, std::size_t, std::size_t,
                     std::uint64_t>> {};

TEST_P(ViewVsCopyStreamProperty, ViewPathIsByteIdenticalToCopyPath) {
  const auto [spec, wl, ws, history, seed] = GetParam();
  if (history <= wl) {
    GTEST_SKIP() << "history too small for this window length";
  }
  const std::size_t n = 6;
  const common::Matrix train_data = random_matrix(n, 90, seed);
  const common::Matrix live = random_matrix(n, 170, seed + 1000);

  const std::shared_ptr<const core::SignatureMethod> method(
      baselines::default_registry().create(spec)->fit(train_data));

  core::StreamOptions opts;
  opts.window_length = wl;
  opts.window_step = ws;
  opts.history_length = history;
  core::MethodStream view_stream(method, opts, n);
  const auto viewed = view_stream.push_all(live);

  // Seed copy-based reference: ring ingest, copy_latest window assembly,
  // the seed column copied out of the ring into its own vector.
  std::vector<std::vector<double>> copied;
  common::RingMatrix ring(n, history);
  common::Matrix window(n, wl);
  std::vector<double> seed_col(n);
  std::size_t next_emit_at = wl;
  for (std::size_t c = 0; c < live.cols(); ++c) {
    std::vector<double> column(n);
    for (std::size_t r = 0; r < n; ++r) column[r] = live(r, c);
    ring.push(column);
    if (c + 1 < next_emit_at) continue;
    next_emit_at += ws;
    ring.copy_latest(wl, window);
    if (ring.size() > wl) {
      const std::span<const double> prev = ring.newest(wl);
      std::copy(prev.begin(), prev.end(), seed_col.begin());
      const std::span<const double> seed = seed_col;
      copied.push_back(method->compute_streaming(window, &seed));
    } else {
      copied.push_back(method->compute_streaming(window, nullptr));
    }
  }

  ASSERT_EQ(viewed.size(), copied.size());
  for (std::size_t i = 0; i < viewed.size(); ++i) {
    // operator== on vector<double> is exact: byte-identical or bust.
    EXPECT_EQ(viewed[i], copied[i]) << spec << " signature " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ViewVsCopyStreamProperty,
    ::testing::Combine(
        ::testing::Values(std::string("cs:blocks=5"),
                          std::string("cs:blocks=3,real-only"),
                          std::string("tuncer"), std::string("bodik"),
                          std::string("lan:wr=7"),
                          std::string("pca:components=3")),
        ::testing::Values(12, 20),    // wl
        ::testing::Values(5, 9),      // ws
        ::testing::Values(13, 21, 64),  // history; 13 = wl+1 for wl=12.
        ::testing::Values(29, 71)));

// Retraining reads the ring history through history_view(); training from
// the view must reproduce the materialised to_matrix() training bit for bit
// (CS compares models member-wise, PCA via the bytes of its binary model
// record, where every double is bit-exact), including when the retained
// history straddles the wrap.
TEST(TrainFromViewProperty, RingHistoryViewTrainsIdenticallyToMaterialised) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::size_t n = 7;
    const common::Matrix data = random_matrix(n, 150, seed);
    common::RingMatrix ring(n, 64);  // 150 pushes -> wraps twice.
    std::vector<double> column(n);
    for (std::size_t c = 0; c < data.cols(); ++c) {
      for (std::size_t r = 0; r < n; ++r) column[r] = data(r, c);
      ring.push(column);
    }
    const common::Matrix materialised = ring.to_matrix();
    EXPECT_EQ(core::train(ring.history_view()), core::train(materialised));
    EXPECT_EQ(core::codec::encode_binary(baselines::PcaMethod(
                  baselines::PcaModel::fit(ring.history_view(), 3))),
              core::codec::encode_binary(baselines::PcaMethod(
                  baselines::PcaModel::fit(materialised, 3))));
  }
}

// ---------------------------------------------------------------------------
// JS divergence properties: monotone fidelity in block count.

TEST(CompressionProperty, JsDivergenceDecreasesWithBlocks) {
  const common::Matrix s = random_matrix(32, 400, 77);
  const core::CsModel model = core::train(s);
  const common::Matrix sorted = model.sort(s);
  double prev = 1.1;
  for (std::size_t l : {2u, 8u, 32u}) {
    const core::CsPipeline p(model, core::CsOptions{l, false});
    const auto sigs = p.transform(s, data::WindowSpec{20, 10});
    auto [re, im] = core::signature_heatmaps(sigs);
    const common::Matrix up = stats::resize_rows_nearest(re, 32);
    const double js = stats::js_divergence_2d(sorted, up);
    EXPECT_LT(js, prev + 0.02) << "fidelity should not degrade with l=" << l;
    prev = js;
  }
}

// ---------------------------------------------------------------------------
// Stratified K-fold properties across class skew and fold counts.

class SplitProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SplitProperty, EverySampleTestedExactlyOnce) {
  const auto [k, skew] = GetParam();
  std::vector<int> labels;
  for (std::size_t c = 0; c < 3; ++c) {
    labels.insert(labels.end(), 20 + skew * c * 10, static_cast<int>(c));
  }
  common::Rng rng(k * 100 + skew);
  const auto folds = ml::stratified_kfold(labels, k, rng);
  std::vector<int> tested(labels.size(), 0);
  for (const auto& fold : folds) {
    for (std::size_t idx : fold.test_indices) ++tested[idx];
  }
  for (std::size_t i = 0; i < labels.size(); ++i) EXPECT_EQ(tested[i], 1);
}

TEST_P(SplitProperty, FoldSizesNearUniform) {
  const auto [k, skew] = GetParam();
  std::vector<int> labels;
  for (std::size_t c = 0; c < 3; ++c) {
    labels.insert(labels.end(), 20 + skew * c * 10, static_cast<int>(c));
  }
  common::Rng rng(k * 991 + skew);
  const auto folds = ml::stratified_kfold(labels, k, rng);
  const double ideal =
      static_cast<double>(labels.size()) / static_cast<double>(k);
  for (const auto& fold : folds) {
    EXPECT_NEAR(static_cast<double>(fold.test_indices.size()), ideal,
                3.0);  // Round-robin dealing is within 1 per class.
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SplitProperty,
                         ::testing::Combine(::testing::Values(2, 5, 10),
                                            ::testing::Values(0, 1, 3)));

}  // namespace
}  // namespace csm
