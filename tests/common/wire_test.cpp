#include "common/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu.hpp"
#include "common/matrix_view.hpp"
#include "common/rng.hpp"

namespace csm::common::wire {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  // The sliced implementation must agree with the plain bitwise definition
  // on every length around the 8-byte fold boundary.
  const std::string base = "0123456789abcdefghij";
  for (std::size_t len = 0; len <= base.size(); ++len) {
    std::uint32_t bitwise = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
      bitwise ^= static_cast<std::uint8_t>(base[i]);
      for (int k = 0; k < 8; ++k) {
        bitwise = (bitwise & 1) ? 0xEDB88320u ^ (bitwise >> 1)
                                : (bitwise >> 1);
      }
    }
    bitwise ^= 0xFFFFFFFFu;
    EXPECT_EQ(crc32(bytes_of(base.substr(0, len))), bitwise)
        << "length " << len;
  }
}

// Every CRC path this host can run: the table everywhere, the PCLMULQDQ fold
// on x86-64 CPUs that have it.
std::vector<Isa> crc_paths() {
  std::vector<Isa> paths;
  for (const Isa isa : {Isa::kScalar, Isa::kPclmul}) {
    if (cpu_has(isa)) paths.push_back(isa);
  }
  return paths;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(256));
  }
  return out;
}

TEST(Crc32, EveryPathMatchesBitwiseDefinition) {
  // Lengths 0..4096 cross the 64-byte fold entry, every 16-byte fold step
  // and every tail length; offsets 0..15 cover every load alignment. Each
  // offset extends a random prior, so the register entering the fold is
  // arbitrary, not just ~0.
  constexpr std::size_t kMaxLen = 4096;
  const std::vector<std::uint8_t> buf = random_bytes(kMaxLen + 16, 77);
  Rng rng(78);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const auto prior = static_cast<std::uint32_t>(rng.uniform_int(1ull << 32));
    std::uint32_t reg = prior ^ 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      const std::uint32_t bitwise = reg ^ 0xFFFFFFFFu;
      EXPECT_EQ(crc32(data, prior), bitwise)
          << "dispatched, offset " << offset << ", length " << len;
      for (const Isa isa : crc_paths()) {
        ASSERT_EQ(crc32_with(isa, data, prior), bitwise)
            << isa_name(isa) << ", offset " << offset << ", length "
            << len;
      }
      if (len == kMaxLen) break;
      reg ^= buf[offset + len];
      for (int k = 0; k < 8; ++k) {
        reg = (reg & 1) ? 0xEDB88320u ^ (reg >> 1) : (reg >> 1);
      }
    }
  }
}

TEST(Crc32, EveryPathChainsAtEverySplit) {
  // crc32(b, crc32(a)) == crc32(a ++ b): the incremental form Recorder and
  // ReplayReader rely on, at every split of a buffer longer than a fold.
  const std::vector<std::uint8_t> buf = random_bytes(1031, 79);
  const std::span<const std::uint8_t> all(buf);
  for (const Isa isa : crc_paths()) {
    const std::uint32_t whole = crc32_with(isa, all, 0);
    EXPECT_EQ(whole, crc32(all));
    for (std::size_t split = 0; split <= buf.size(); ++split) {
      const std::uint32_t head = crc32_with(isa, all.first(split), 0);
      ASSERT_EQ(crc32_with(isa, all.subspan(split), head), whole)
          << isa_name(isa) << ", split " << split;
    }
  }
}

TEST(Crc32, UnavailablePathThrows) {
  EXPECT_THROW(crc32_with(Isa::kAvx2, bytes_of("x"), 0),
               std::invalid_argument);
  if (!cpu_has(Isa::kPclmul)) {
    EXPECT_THROW(crc32_with(Isa::kPclmul, bytes_of("x"), 0),
                 std::invalid_argument);
  }
}

TEST(AppendF64s, MatchesAppendF64ValueByValue) {
  const std::vector<double> values = {
      -0.0, 1.5, std::bit_cast<double>(0x7ff8000000000001ull),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  std::vector<std::uint8_t> bulk = {0xaa};
  append_f64s(bulk, values);
  append_f64s(bulk, {});
  std::vector<std::uint8_t> one_by_one = {0xaa};
  for (const double v : values) append_f64(one_by_one, v);
  EXPECT_EQ(bulk, one_by_one);
}

// Column segments append as they lie, a row-major view gathers: both give
// append_f64 column after column.
TEST(AppendF64Columns, EveryLayoutAppendsColumnAfterColumn) {
  const std::size_t rows = 3;
  const std::size_t cols = 5;
  std::vector<double> col_major(rows * cols);
  for (std::size_t i = 0; i < col_major.size(); ++i) {
    col_major[i] = 0.5 * static_cast<double>(i) - 3.0;
  }
  std::vector<double> row_major(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      row_major[r * cols + c] = col_major[c * rows + r];
    }
  }
  std::vector<std::uint8_t> expected;
  for (const double v : col_major) append_f64(expected, v);

  const std::span<const double> all(col_major);
  for (const MatrixView& view :
       {MatrixView::column_major(col_major.data(), rows, cols),
        MatrixView::column_segments(all.first(2 * rows), all.subspan(2 * rows),
                                    rows),
        MatrixView::row_major(row_major.data(), rows, cols)}) {
    std::vector<std::uint8_t> out;
    append_f64_columns(out, view);
    EXPECT_EQ(out, expected);
  }
}

}  // namespace
}  // namespace csm::common::wire
