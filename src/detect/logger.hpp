// logger.hpp — the Data Logger (§5, Fig. 5).
//
// A sliding-window log of state estimates and residuals sized to the
// maximum detection window w_m.  At each control step the protocol:
//   * Buffer  — compute x̃_t = A x̄_{t-1} + B u_{t-1} and the residual
//               z_t = |x̃_t - x̄_t| and append them (blue dots in Fig. 5),
//   * Hold    — keep points that have moved outside the current detection
//               window; they are trusted and seed the deadline estimator,
//   * Release — drop points older than t - w_m - 1 (grey dots); they can
//               no longer be referenced by any window size in [0, w_m].
//
// Implemented as a fixed-capacity ring buffer (capacity w_m + 2: the w_m+1
// points a maximal window can cover, plus the trusted seed just outside
// it).  Entries are indexed by absolute control step.
//
// Degradation: non-finite data is *quarantined* rather than stored.  A
// quarantined entry keeps its slot in the ring (steps stay contiguous) but
// carries a sanitized estimate/residual and is excluded from window means
// and from trusted-seed selection — one NaN sample can therefore never
// poison a whole window average or a reachability seed.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/ckpt.hpp"
#include "core/status.hpp"
#include "models/lti.hpp"

namespace awd::detect {

using linalg::Vec;

/// One logged control step.
struct LogEntry {
  std::size_t t = 0;  ///< absolute control step
  Vec estimate;       ///< x̄_t (sanitized when quarantined)
  Vec control;        ///< u_t (needed to predict step t+1)
  Vec predicted;      ///< x̃_t
  Vec residual;       ///< z_t = |x̃_t - x̄_t| (zero when quarantined)
  bool quarantined = false;  ///< entry held non-finite data; excluded from stats
};

/// Sliding-window data logger.
class DataLogger {
 public:
  /// @param model      plant model used for the one-step prediction
  /// @param max_window maximum detection window size w_m (>= 1)
  /// Throws std::invalid_argument on w_m == 0 or invalid model.
  DataLogger(models::DiscreteLti model, std::size_t max_window);

  /// Record step t.  Steps must be logged contiguously (t == latest + 1,
  /// or any t for the first entry); throws std::invalid_argument otherwise.
  /// Non-finite estimates/controls/residuals are quarantined, never thrown
  /// on.  Returns the stored entry (with prediction and residual filled in).
  const LogEntry& log(std::size_t t, const Vec& estimate, const Vec& control);

  /// Non-throwing hot-path variant: contract violations (dimension
  /// mismatch, non-contiguous step) come back as a Status instead of an
  /// exception; the entry is not stored on error.  Quarantining is not an
  /// error — the entry is stored and the returned Status is OK; inspect
  /// entry(t).quarantined.
  [[nodiscard]] core::Status log_checked(std::size_t t, const Vec& estimate,
                                         const Vec& control) noexcept;

  /// True iff step t is still retained.
  [[nodiscard]] bool has(std::size_t t) const noexcept;

  /// Entry for step t.  Throws std::out_of_range if released or not yet
  /// logged.
  [[nodiscard]] const LogEntry& entry(std::size_t t) const;

  /// Oldest / newest retained step.  Throws std::logic_error when empty.
  [[nodiscard]] std::size_t earliest() const;
  [[nodiscard]] std::size_t latest() const;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] std::size_t max_window() const noexcept { return max_window_; }

  /// Entries quarantined since construction or reset().
  [[nodiscard]] std::size_t quarantined_count() const noexcept { return quarantined_; }

  /// Mean residual over the detection window [t_end - w, t_end] (§4.1).
  /// Points older than the earliest retained entry are skipped (at stream
  /// start the window is partially filled), as are quarantined points; the
  /// mean is over the points actually present.  When every point in the
  /// window is quarantined the mean is the zero vector (no evidence — the
  /// conservative, alarm-free answer).  Throws std::out_of_range if t_end
  /// itself is not retained.
  [[nodiscard]] Vec window_mean(std::size_t t_end, std::size_t w) const;

  /// window_mean() into caller-owned storage (resized, buffer reused).
  /// Single implementation of the mean — the value-returning overload
  /// delegates here — so batched callers are bit-identical.
  void window_mean_into(std::size_t t_end, std::size_t w, Vec& out) const;

  /// The trusted seed for deadline estimation at time t with window w:
  /// the estimate x̄_{t-w-1} that just left the detection window (§3.3.1),
  /// or nullopt while the stream is younger than w + 1 steps or when the
  /// seed entry is quarantined (a corrupted point must never seed
  /// reachability).
  [[nodiscard]] std::optional<Vec> trusted_state(std::size_t t, std::size_t w) const;

  /// trusted_state() without the copy: a pointer into the ring (valid until
  /// the next log/reset), or nullptr exactly when trusted_state() — which
  /// delegates here — returns nullopt.
  [[nodiscard]] const Vec* trusted_state_view(std::size_t t, std::size_t w) const noexcept;

  /// Forget everything (new run).
  void reset();

  /// Snapshot hooks (core::ckpt): the retained ring entries (earliest to
  /// latest, with quarantine flags) plus the size/latest/quarantine
  /// counters.  deserialize validates the window size against this logger's
  /// configuration and the entries' step contiguity, so a tampered payload
  /// cannot produce an inconsistent ring.
  void serialize(core::ckpt::Writer& w) const;
  [[nodiscard]] core::Status deserialize(core::ckpt::Reader& r);

 private:
  [[nodiscard]] const LogEntry& slot(std::size_t t) const noexcept {
    return buf_[t % buf_.size()];
  }

  /// Contract validation shared by log / log_checked.
  [[nodiscard]] core::Status check_log(std::size_t t, const Vec& estimate,
                                       const Vec& control) const noexcept;

  /// Store step t after validation (quarantines non-finite data).
  const LogEntry& store(std::size_t t, const Vec& estimate, const Vec& control);

  models::DiscreteLti model_;
  std::size_t max_window_;
  std::vector<LogEntry> buf_;  ///< ring, indexed by t mod capacity
  Vec predict_scratch_;        ///< store() scratch (not logical state)
  std::size_t size_ = 0;       ///< retained entry count
  std::size_t latest_ = 0;     ///< absolute step of newest entry (valid when size_ > 0)
  std::size_t quarantined_ = 0;  ///< lifetime quarantine count
};

}  // namespace awd::detect
