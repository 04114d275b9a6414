// Shared-memory parallel loop helpers.
//
// The hot paths of the library (pairwise correlation matrix, random-forest
// training) are embarrassingly parallel across rows / estimators. We wrap
// OpenMP behind a tiny function-object interface so that callers stay free of
// pragmas and the code still compiles (serially) without OpenMP support.
#pragma once

#include <cstddef>

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace csm::common {

/// Number of hardware threads OpenMP will use (1 when built without OpenMP).
inline int parallel_thread_count() noexcept {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs body(i) for every i in [0, n), potentially in parallel. The body must
/// not throw and iterations must be independent. A single iteration runs on
/// the calling thread: waking a thread team for it costs more than it saves.
template <typename Body>
void parallel_for(std::size_t n, const Body& body) {
#if defined(_OPENMP)
#pragma omp parallel for schedule(static) if (n > 1)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    body(static_cast<std::size_t>(i));
  }
#else
  for (std::size_t i = 0; i < n; ++i) body(i);
#endif
}

/// Like parallel_for but with dynamic scheduling, for iterations with skewed
/// cost (e.g. the upper-triangular correlation loop).
template <typename Body>
void parallel_for_dynamic(std::size_t n, const Body& body) {
#if defined(_OPENMP)
#pragma omp parallel for schedule(dynamic) if (n > 1)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    body(static_cast<std::size_t>(i));
  }
#else
  for (std::size_t i = 0; i < n; ++i) body(i);
#endif
}

}  // namespace csm::common
