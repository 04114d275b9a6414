// Runtime instruction-set probe for the hot kernels.
//
// The library is built for the baseline ISA of its target, so one binary
// runs on every host. Kernels that have faster paths for wider vector units
// (stats::shifted_correlation_matrix, common::wire::crc32) compile those paths
// with per-function target attributes and pick one at first use from this
// probe, caching the choice in a function pointer. There is no option and no
// environment variable: the CPU decides, and every path produces the same
// bytes, which the kernels' tests pin by running each path the host has.
#pragma once

namespace csm::common {

/// Instruction-set extensions a kernel may have a dedicated path for.
enum class Isa {
  kScalar,   ///< Portable C++; always available.
  kPclmul,   ///< x86-64 carry-less multiply (PCLMULQDQ).
  kAvx2,     ///< x86-64 AVX2 (256-bit lanes).
  kAvx512f,  ///< x86-64 AVX-512 Foundation (512-bit lanes).
};

/// True when this CPU (and its OS) can run code using `isa`. Probed once;
/// non-x86-64 builds report only kScalar.
[[nodiscard]] bool cpu_has(Isa isa) noexcept;

/// Lower-case name of `isa` ("scalar", "pclmul", "avx2", "avx512f").
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

}  // namespace csm::common
