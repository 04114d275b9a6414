#include "common/cpu.hpp"

#include <stdexcept>
#include <string>

namespace csm::common {

namespace {

struct Features {
  bool pclmul = false;
  bool avx2 = false;
  bool avx512f = false;
};

Features probe() noexcept {
  Features f;
#if defined(__x86_64__)
  // __builtin_cpu_supports also checks that the OS saves the AVX and
  // AVX-512 register state (XGETBV), not just the CPUID bits.
  __builtin_cpu_init();
  f.pclmul = __builtin_cpu_supports("pclmul") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  return f;
}

}  // namespace

bool cpu_has(Isa isa) noexcept {
  static const Features features = probe();
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kPclmul:
      return features.pclmul;
    case Isa::kAvx2:
      return features.avx2;
    case Isa::kAvx512f:
      return features.avx512f;
  }
  return false;
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kPclmul:
      return "pclmul";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512f:
      return "avx512f";
  }
  return "unknown";
}

void throw_no_kernel(Isa isa, const char* who) {
  throw std::invalid_argument(std::string(who) + ": no " + isa_name(isa) +
                              " kernel on this CPU");
}

}  // namespace csm::common
