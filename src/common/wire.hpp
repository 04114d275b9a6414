// Wire encoding shared by every binary format in the tree: CSMB model
// records (core/model_codec), model packs (core/model_pack), CSMF frames
// (net/frame, net/message) and CSMR recordings (replay/recording).
//
// All of them store integers little-endian and guard their bytes with the
// same CRC-32 (IEEE 802.3, polynomial 0xEDB88320). append_* pushes a value
// onto a byte buffer; load_* reads one from `p`, and the caller guarantees
// the bytes are in range (each format checks its lengths once, then loads
// raw). Little-endian hosts read in place; others assemble.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/cpu.hpp"
#include "common/matrix_view.hpp"

namespace csm::common::wire {

void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
/// The IEEE-754 bit pattern of `v` as a u64.
inline void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Appends every value of `m` as append_f64 would, column after column:
/// the sample layout of kSampleBatch payloads and CSMR batches. On a
/// little-endian host each column is one block copy.
void append_f64_columns(std::vector<std::uint8_t>& out, const MatrixView& m);

/// Reads out.size() f64s stored as append_f64 writes them; the caller
/// guarantees the 8 * out.size() bytes at `p` are in range. One block copy
/// on a little-endian host.
void load_f64s(const std::uint8_t* p, std::span<double> out);

// Inline: decoders call the loads once per value.
inline std::uint16_t load_u16(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(p[0]) |
        (static_cast<std::uint16_t>(p[1]) << 8));
  }
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    return v;
  }
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
  }
}

/// CRC-32 of `data`. Inputs of 64 bytes or more fold through PCLMULQDQ
/// when the CPU has it (cpu_has); the result is the same on every path.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: extends a prior crc32() result with further bytes, so
/// crc32(b, crc32(a)) == crc32(a ++ b). A prior of 0 (== crc32({})) starts a
/// fresh checksum; streaming writers (replay::Recorder) fold each chunk in
/// as it is written instead of buffering the whole stream.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t prior);

/// crc32(data, prior) computed by the path for `isa` instead of the
/// dispatched one, so tests and benches can run every path the host has:
/// kScalar is the slicing-by-8 table, kPclmul the carry-less-multiply fold.
/// Throws std::invalid_argument for any other `isa` or one this CPU lacks.
std::uint32_t crc32_with(Isa isa, std::span<const std::uint8_t> data,
                         std::uint32_t prior);

}  // namespace csm::common::wire
