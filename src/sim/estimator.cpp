#include "sim/estimator.hpp"

#include <cstdint>

namespace awd::sim {

core::Status Estimator::estimate_checked_into(const std::optional<Vec>& measurement,
                                              Vec& out) const {
  if (!measurement) {
    return {core::StatusCode::kUnavailable,
            "Estimator: no sample delivered this period"};
  }
  if (!measurement->is_finite()) {
    return {core::StatusCode::kInvalidInput,
            "Estimator: non-finite measurement rejected"};
  }
  out = *measurement;
  return core::Status::ok();
}

core::Status Estimator::restore_state(core::ckpt::Reader& r) const {
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return r.status();
  if (tag != 0) {
    return {core::StatusCode::kDataLoss, "snapshot estimator state tag mismatch"};
  }
  return core::Status::ok();
}

}  // namespace awd::sim
