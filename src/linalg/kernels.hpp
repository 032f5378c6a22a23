// kernels.hpp — the kernel-level stub perfbench's host record reports.
//
// The detector's per-step arithmetic runs on the model's own row-major
// matrices (Matrix::mul_into, Vec's elementwise loops) and on the deadline
// estimator's SupportTable (reach/deadline.hpp); there is no separate
// kernel layer (DESIGN.md §14).  What remains here is the level stub: the
// benchmark's host record prints it as simd_active/simd_compiled.
#pragma once

#include <cstdint>

namespace awd::linalg::kernels {

/// The kernel set in play.  There is only the scalar one.
enum class SimdLevel : std::uint8_t { kScalar = 0 };

/// Human-readable level name: always "scalar".
[[nodiscard]] constexpr const char* level_name(SimdLevel) noexcept { return "scalar"; }

/// Kernel set compiled into this binary: always kScalar.
[[nodiscard]] constexpr SimdLevel compiled_level() noexcept { return SimdLevel::kScalar; }

/// Kernel set the library runs: always kScalar.
[[nodiscard]] constexpr SimdLevel active_level() noexcept { return SimdLevel::kScalar; }

}  // namespace awd::linalg::kernels
