#include "common/wire.hpp"

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace csm::common::wire {

namespace {

// One block insert of v's little-endian bytes.
template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  std::uint8_t bytes[sizeof(T)];
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

}  // namespace

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  append_le(out, v);
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  append_le(out, v);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  append_le(out, v);
}

void append_f64s(std::vector<std::uint8_t>& out,
                 std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
    out.insert(out.end(), bytes, bytes + values.size_bytes());
  } else {
    for (const double v : values) append_f64(out, v);
  }
}

void append_f64_columns(std::vector<std::uint8_t>& out, const MatrixView& m) {
  for (std::size_t k = 0; k < m.n_col_segments(); ++k) {
    const MatrixView::ColSegment seg = m.col_segment(k);
    append_f64s(out, {seg.data, seg.n_cols * m.rows()});
  }
  if (m.contiguous_cols()) return;
  std::vector<double> col(m.rows());
  for (std::size_t c = 0; c < m.cols(); ++c) {
    m.copy_col(c, col);
    append_f64s(out, col);
  }
}

void load_f64s(const std::uint8_t* p, std::span<double> out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) std::memcpy(out.data(), p, out.size_bytes());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::bit_cast<double>(load_u64(p + 8 * i));
    }
  }
}

// CRC-32: a slicing-by-8 table everywhere, and on x86-64 a PCLMULQDQ fold
// for inputs of 64 bytes or more, chosen once per process.
namespace {

// Advances a raw CRC register (no pre- or post-inversion) over n bytes.
using CrcUpdate = std::uint32_t (*)(std::uint32_t crc, const std::uint8_t* p,
                                    std::size_t n);

// Slicing-by-8: eight derived tables let the hot loop fold 8 input bytes per
// iteration instead of one. Table 0 is the classic byte-at-a-time table and
// handles the tail.
std::uint32_t crc_update_table(std::uint32_t crc, const std::uint8_t* p,
                               std::size_t n) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint32_t lo = crc ^ load_u32(p + i);
    const std::uint32_t hi = load_u32(p + i + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; i < n; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Shortest input the fold path takes: one 64-byte block for the four lanes.
constexpr std::size_t kFoldMin = 64;

// Carry-less folding (Intel, "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ", 2009), in the bit-reflected domain of the 0xEDB88320
// polynomial. Each 128-bit lane x is moved forward by a fixed distance as
// clmul(x.lo, k.lo) ^ clmul(x.hi, k.hi), with k holding x^(d+32) and x^(d-32)
// mod P (reflected, pre-shifted by one bit) for the distance d.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i k,
                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

__attribute__((target("pclmul"))) std::uint32_t crc_update_clmul(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  if (n < kFoldMin) return crc_update_table(crc, p, n);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // d = 512 bits (four lanes ahead) and d = 128 bits (one lane ahead).
  const __m128i k512 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k128 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);

  // The register enters as the XOR into the first four message bytes.
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k512, load(p));
    x1 = fold(x1, k512, load(p + 16));
    x2 = fold(x2, k512, load(p + 32));
    x3 = fold(x3, k512, load(p + 48));
  }
  x0 = fold(x0, k128, x1);
  x0 = fold(x0, k128, x2);
  x0 = fold(x0, k128, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k128, load(p));

  // x0 is congruent to everything consumed so far, so running it through
  // the table from a zero register lands on the register the whole prefix
  // would have produced; the tail then continues from there.
  alignas(16) std::uint8_t folded[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(folded), x0);
  return crc_update_table(crc_update_table(0, folded, sizeof folded), p, n);
}

#endif  // __x86_64__

using CrcPaths = IsaPaths<Isa::kPclmul>;

CrcUpdate crc_update_for([[maybe_unused]] Isa isa) {
#if defined(__x86_64__)
  if (isa == Isa::kPclmul) return crc_update_clmul;
#endif
  return crc_update_table;
}

std::uint32_t checksum(CrcUpdate update, std::span<const std::uint8_t> data,
                       std::uint32_t prior) {
  // prior == 0 yields the classic ~0 initial state; any other prior value
  // un-finalises so feeding the next chunk continues the same checksum.
  return update(prior ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32(data, 0);
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prior) {
  return checksum(crc_update_for(CrcPaths::widest()), data, prior);
}

std::uint32_t crc32_with(Isa isa, std::span<const std::uint8_t> data,
                         std::uint32_t prior) {
  return checksum(crc_update_for(CrcPaths::require(isa, "crc32")), data,
                  prior);
}

}  // namespace csm::common::wire
