#include "detect/logger.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace awd::detect {

namespace {

struct LoggerObs {
  obs::Counter& entries;
  obs::Counter& quarantined;

  static LoggerObs& get() {
    static LoggerObs o{
        obs::Registry::global().counter("awd_logger_entries_total",
                                        "control steps buffered by the data logger"),
        obs::Registry::global().counter("awd_logger_quarantine_total",
                                        "logged steps quarantined for non-finite data"),
    };
    return o;
  }
};

}  // namespace

DataLogger::DataLogger(models::DiscreteLti model, std::size_t max_window)
    : model_(std::move(model)), max_window_(max_window) {
  model_.validate();
  if (max_window_ == 0) throw std::invalid_argument("DataLogger: max_window must be >= 1");
  // w_m + 1 points inside a maximal window plus the trusted seed outside it.
  buf_.resize(max_window_ + 2);
  a_panel_.assign(model_.A);
  b_panel_.assign(model_.B);
}

core::Status DataLogger::check_log(std::size_t t, const Vec& estimate,
                                   const Vec& control) const noexcept {
  if (estimate.size() != model_.state_dim()) {
    return {core::StatusCode::kInvalidInput, "DataLogger::log: estimate dimension mismatch"};
  }
  if (control.size() != model_.input_dim()) {
    return {core::StatusCode::kInvalidInput, "DataLogger::log: control dimension mismatch"};
  }
  if (size_ > 0 && t != latest_ + 1) {
    return {core::StatusCode::kOutOfRange, "DataLogger::log: steps must be contiguous"};
  }
  return core::Status::ok();
}

const LogEntry& DataLogger::store(std::size_t t, const Vec& estimate, const Vec& control) {
  const std::size_t n = model_.state_dim();

  // Build the entry directly in its ring slot: every field is overwritten
  // below, so the slot's vectors act as a per-step arena (no allocation
  // once their buffers are sized).  The slot never aliases the previous
  // entry's slot — steps are contiguous and the capacity is >= 3.
  LogEntry& e = buf_[t % buf_.size()];
  e.t = t;
  e.quarantined = false;
  e.estimate = estimate;
  e.control = control;

  // Quarantine line 1: non-finite inputs never enter the ring.  The stored
  // estimate falls back to the previous (finite) estimate so the *next*
  // step's prediction stays finite; a non-finite control becomes zero.
  if (!e.estimate.is_finite()) {
    e.quarantined = true;
    if (size_ > 0) {
      e.estimate = slot(latest_).estimate;
    } else {
      e.estimate.assign(n, 0.0);
    }
  }
  if (!e.control.is_finite()) {
    e.quarantined = true;
    e.control.assign(control.size(), 0.0);
  }

  if (size_ == 0) {
    // No previous step: define the prediction as the estimate itself so the
    // first residual is zero.
    e.predicted = e.estimate;
    e.residual.assign(n, 0.0);
  } else {
    const LogEntry& prev = slot(latest_);
    // x̃ = A x̄ + B u on the kernel panels — the same three kernels (and
    // the same per-row sum order) as DiscreteLti::step_into, so the
    // prediction is bit-identical to the model path.
    e.predicted.assign(n, 0.0);
    predict_scratch_.assign(n, 0.0);
    linalg::kernels::gemv(a_panel_, prev.estimate.data(), e.predicted.data());
    linalg::kernels::gemv(b_panel_, prev.control.data(), predict_scratch_.data());
    linalg::kernels::add_assign(e.predicted.data(), predict_scratch_.data(), n);
    e.residual.assign(n, 0.0);
    linalg::kernels::abs_diff(e.predicted.data(), e.estimate.data(),
                              e.residual.data(), n);
    // Quarantine line 2: even finite inputs can overflow through an
    // unstable model's prediction.
    if (!e.predicted.is_finite() || !e.residual.is_finite()) {
      e.quarantined = true;
      e.predicted = e.estimate;
      e.residual.assign(n, 0.0);
    }
  }
  if (e.quarantined) {
    e.residual.assign(n, 0.0);  // quarantined residuals contribute nothing
    ++quarantined_;
    LoggerObs::get().quarantined.inc();
  }
  LoggerObs::get().entries.inc();

  latest_ = t;
  if (size_ < buf_.size()) ++size_;  // Release happens implicitly: the ring overwrites
  return e;
}

const LogEntry& DataLogger::log(std::size_t t, const Vec& estimate, const Vec& control) {
  const core::Status status = check_log(t, estimate, control);
  if (!status.is_ok()) {
    if (status.code() == core::StatusCode::kOutOfRange) {
      throw std::invalid_argument("DataLogger::log: steps must be contiguous (expected " +
                                  std::to_string(latest_ + 1) + ", got " + std::to_string(t) +
                                  ")");
    }
    throw std::invalid_argument(std::string(status.message()));
  }
  return store(t, estimate, control);
}

core::Status DataLogger::log_checked(std::size_t t, const Vec& estimate,
                                     const Vec& control) noexcept {
  const core::Status status = check_log(t, estimate, control);
  if (status.is_ok()) (void)store(t, estimate, control);
  return status;
}

bool DataLogger::has(std::size_t t) const noexcept {
  if (size_ == 0 || t > latest_) return false;
  return t + size_ > latest_;  // t >= latest - size + 1 without underflow
}

const LogEntry& DataLogger::entry(std::size_t t) const {
  if (!has(t)) {
    throw std::out_of_range("DataLogger::entry: step " + std::to_string(t) +
                            " not retained");
  }
  return slot(t);
}

std::size_t DataLogger::earliest() const {
  if (size_ == 0) throw std::logic_error("DataLogger::earliest: empty");
  return latest_ - size_ + 1;
}

std::size_t DataLogger::latest() const {
  if (size_ == 0) throw std::logic_error("DataLogger::latest: empty");
  return latest_;
}

Vec DataLogger::window_mean(std::size_t t_end, std::size_t w) const {
  Vec out;
  window_mean_into(t_end, w, out);
  return out;
}

void DataLogger::window_mean_into(std::size_t t_end, std::size_t w, Vec& out) const {
  if (!has(t_end)) {
    throw std::out_of_range("DataLogger::window_mean: t_end not retained");
  }
#ifdef AWD_MUT_WINDOW_MEAN_OFF_BY_ONE
  // [mutation-smoke seeded bug] window one point short: drops the oldest
  // in-window residual, so the mean skips exactly the evidence Thm. 1 needs.
  const std::size_t lo_wanted = t_end >= w ? t_end - w + 1 : 0;
#else
  const std::size_t lo_wanted = t_end >= w ? t_end - w : 0;  // startup underflow guard
#endif
  const std::size_t lo = std::max(lo_wanted, earliest());

  out.assign(model_.state_dim(), 0.0);
  std::size_t count = 0;
  for (std::size_t s = lo; s <= t_end; ++s) {
    const LogEntry& e = slot(s);
    if (e.quarantined) continue;
    out += e.residual;
    ++count;
  }
  // Every point quarantined: no usable evidence in the window.  Zero is the
  // conservative answer — the detector stays silent rather than alarming on
  // garbage (the corruption itself is surfaced through the health monitor).
  if (count == 0) return;
  out /= static_cast<double>(count);
}

std::optional<Vec> DataLogger::trusted_state(std::size_t t, std::size_t w) const {
  const Vec* seed = trusted_state_view(t, w);
  if (seed == nullptr) return std::nullopt;
  return *seed;
}

const Vec* DataLogger::trusted_state_view(std::size_t t, std::size_t w) const noexcept {
  if (t < w + 1) return nullptr;  // startup: nothing outside the window yet
#ifdef AWD_MUT_TRUSTED_SEED_INSIDE_WINDOW
  // [mutation-smoke seeded bug] seeds reachability from the newest
  // *in-window* point — a state the current window has not yet cleared.
  const std::size_t seed = t - w;
#else
  const std::size_t seed = t - w - 1;
#endif
  if (!has(seed)) return nullptr;
  const LogEntry& e = slot(seed);
  if (e.quarantined) return nullptr;  // corrupted points never seed reachability
  return &e.estimate;
}

void DataLogger::reset() {
  size_ = 0;
  latest_ = 0;
  quarantined_ = 0;
}

void DataLogger::serialize(core::ckpt::Writer& w) const {
  w.u64(max_window_);
  w.u64(size_);
  w.u64(latest_);
  w.u64(quarantined_);
  if (size_ == 0) return;
  for (std::size_t t = latest_ - size_ + 1; t <= latest_; ++t) {
    const LogEntry& e = slot(t);
    w.u64(e.t);
    w.vec(e.estimate);
    w.vec(e.control);
    w.vec(e.predicted);
    w.vec(e.residual);
    w.b(e.quarantined);
  }
}

core::Status DataLogger::deserialize(core::ckpt::Reader& r) {
  std::uint64_t max_window = 0;
  std::uint64_t size = 0;
  std::uint64_t latest = 0;
  std::uint64_t quarantined = 0;
  if (!r.u64(max_window) || !r.u64(size) || !r.u64(latest) || !r.u64(quarantined)) {
    return r.status();
  }
  if (max_window != max_window_) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot logger window size disagrees with configuration"};
  }
  if (size > buf_.size() || (size > 0 && latest + 1 < size)) {
    return core::Status{core::StatusCode::kInvalidInput,
                        "snapshot logger ring geometry inconsistent"};
  }
  const std::size_t n = model_.state_dim();
  const std::size_t m = model_.input_dim();
  reset();
  for (std::uint64_t i = 0; i < size; ++i) {
    const std::size_t t = static_cast<std::size_t>(latest - size + 1 + i);
    std::uint64_t stored_t = 0;
    LogEntry& e = buf_[t % buf_.size()];
    if (!r.u64(stored_t) || !r.vec(e.estimate) || !r.vec(e.control) ||
        !r.vec(e.predicted) || !r.vec(e.residual) || !r.b(e.quarantined)) {
      return r.status();
    }
    if (stored_t != t) {
      return core::Status{core::StatusCode::kInvalidInput,
                          "snapshot logger entries not contiguous"};
    }
    if (e.estimate.size() != n || e.control.size() != m || e.predicted.size() != n ||
        e.residual.size() != n) {
      return core::Status{core::StatusCode::kInvalidInput,
                          "snapshot logger entry dimension mismatch"};
    }
    e.t = t;
  }
  size_ = static_cast<std::size_t>(size);
  latest_ = static_cast<std::size_t>(latest);
  quarantined_ = static_cast<std::size_t>(quarantined);
  return core::Status::ok();
}

}  // namespace awd::detect
