// Runtime instruction-set probe and the vector type of the hot kernels.
//
// The library is built for the baseline ISA of its target, so one binary
// runs on every host. A kernel with faster paths for wider vector units
// (stats::shifted_correlation_matrix, common::wire::crc32, the CS lane kernel
// of core/smoothing.hpp) names them in an IsaPaths list and takes the widest
// one this CPU runs at first use, caching the choice. The correlation and
// lane kernels have one source per loop: a template over the vector width
// Vec<kW>, compiled once per target by thin wrappers (target("avx512f") at
// 8 lanes, target("avx2") at 4, the default target at 2, which is SSE2 on
// x86-64 and NEON on arm64). Only CRC32's carry-less multiply keeps
// intrinsics. There is no option and no environment variable: the CPU
// decides, and every path produces the same bytes, which the kernels' tests
// pin by running each path the host has.
#pragma once

#include <cstddef>
#include <initializer_list>

namespace csm::common {

/// Instruction-set extensions a kernel may have a dedicated path for.
enum class Isa {
  kScalar,   ///< The default target's code (SSE2 on x86-64, NEON on
             ///< arm64, or plain C++); always available.
  kPclmul,   ///< x86-64 carry-less multiply (PCLMULQDQ).
  kAvx2,     ///< x86-64 AVX2 (256-bit lanes).
  kAvx512f,  ///< x86-64 AVX-512 Foundation (512-bit lanes).
};

/// True when this CPU (and its OS) can run code using `isa`. Probed once;
/// non-x86-64 builds report only kScalar.
[[nodiscard]] bool cpu_has(Isa isa) noexcept;

/// Lower-case name of `isa` ("scalar", "pclmul", "avx2", "avx512f").
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Throws std::invalid_argument("<who>: no <isa> kernel on this CPU").
[[noreturn]] void throw_no_kernel(Isa isa, const char* who);

/// The paths a kernel has besides kScalar, widest first, e.g.
/// IsaPaths<Isa::kAvx512f, Isa::kAvx2>.
template <Isa... kPaths>
struct IsaPaths {
  /// The first of kPaths this CPU runs, else kScalar; chosen once.
  static Isa widest() noexcept {
    static const Isa isa = [] {
      for (const Isa path : {kPaths...}) {
        if (cpu_has(path)) return path;
      }
      return Isa::kScalar;
    }();
    return isa;
  }

  /// `isa` when it is kScalar or one of kPaths and this CPU runs it;
  /// throws through throw_no_kernel otherwise.
  static Isa require(Isa isa, const char* who) {
    if (!(isa == Isa::kScalar || ((isa == kPaths) || ...)) || !cpu_has(isa)) {
      throw_no_kernel(isa, who);
    }
    return isa;
  }
};

/// kW doubles as one GNU vector-extension value (GCC and Clang). Kernels use
/// only what both compilers document: element subscripts, arithmetic (a
/// scalar operand is broadcast), comparisons, and ?: on a comparison.
template <std::size_t kW>
struct Vec {
  // Member typedefs, not alias templates: GCC drops vector_size from a
  // dependent alias declaration, leaving a plain double.
  typedef double V __attribute__((vector_size(8 * kW)));
  /// V at the alignment of a double, for loads and stores.
  typedef double Unaligned
      __attribute__((vector_size(8 * kW), aligned(8), may_alias));
  static_assert(sizeof(V) == sizeof(double) * kW);

  /// The kW doubles at p as one vector lvalue: `V v = at(p)`, `at(p) = v`.
  /// A reference, because a vector passed or returned by value outside its
  /// target changes the calling convention (GCC's -Wpsabi).
  static const Unaligned& at(const double* p) noexcept {
    return *reinterpret_cast<const Unaligned*>(p);
  }
  static Unaligned& at(double* p) noexcept {
    return *reinterpret_cast<Unaligned*>(p);
  }
};

}  // namespace csm::common

// Fully unrolls a small register-block loop over a kernel's vectors, so its
// arrays of V stay in registers.
#if defined(__clang__)
#define CSM_UNROLL _Pragma("unroll")
#else
#define CSM_UNROLL _Pragma("GCC unroll 8")
#endif
