// estimator.hpp — the state-estimation stage of the closed loop.
//
// The paper assumes the state estimate *is* the received measurement (§2,
// full observability), so the stage is a passthrough.  What it adds is
// sample validation: a missing or non-finite sample is rejected with a
// typed Status, and the caller runs its hold-last-value fallback instead of
// feeding the sample to the controller and the logger.
#pragma once

#include <optional>

#include "core/ckpt.hpp"
#include "core/status.hpp"
#include "linalg/vec.hpp"

namespace awd::sim {

using linalg::Vec;

/// Measurement → state-estimate stage of the loop (§2: estimate = measurement).
class Estimator {
 public:
  /// Copies the delivered sample into `out`.  Returns kUnavailable when no
  /// sample was delivered this period (dropout / burst loss) and
  /// kInvalidInput when the sample holds non-finite values; `out` is left
  /// untouched on either error.
  [[nodiscard]] core::Status estimate_checked_into(const std::optional<Vec>& measurement,
                                                   Vec& out) const;

  /// Snapshot hooks (core::ckpt), mirroring Controller's: the stage is
  /// stateless, so the image holds only its one-byte state tag (0), and
  /// restore_state rejects any other tag with kDataLoss.
  void serialize_state(core::ckpt::Writer& w) const { w.u8(0); }
  [[nodiscard]] core::Status restore_state(core::ckpt::Reader& r) const;
};

}  // namespace awd::sim
