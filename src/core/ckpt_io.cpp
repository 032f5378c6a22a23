#include "core/ckpt_io.hpp"

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace awd::core::ckpt {

namespace {

/// Guard on element counts read from snapshot bytes, mirroring the byte
/// layer's own cap: a corrupted count must fail fast, not allocate.
constexpr std::uint64_t kMaxConfigCount = 1ull << 20;

bool read_count(Reader& r, std::uint64_t& n) {
  if (!r.u64(n)) return false;
  if (n > kMaxConfigCount) {
    r.fail();
    return false;
  }
  return true;
}

}  // namespace

void write_lti(Writer& w, const models::DiscreteLti& m) {
  w.mat(m.A);
  w.mat(m.B);
  w.f64(m.dt);
  w.str(m.name);
  w.u64(m.state_names.size());
  for (const std::string& s : m.state_names) w.str(s);
}

bool read_lti(Reader& r, models::DiscreteLti& m) {
  std::uint64_t n = 0;
  if (!r.mat(m.A) || !r.mat(m.B) || !r.f64(m.dt) || !r.str(m.name) || !read_count(r, n)) {
    return false;
  }
  m.state_names.resize(static_cast<std::size_t>(n));
  for (std::string& s : m.state_names) {
    if (!r.str(s)) return false;
  }
  return true;
}

void write_interval(Writer& w, const reach::Interval& v) {
  w.f64(v.lo);
  w.f64(v.hi);
}

bool read_interval(Reader& r, reach::Interval& v) {
  if (!r.f64(v.lo) || !r.f64(v.hi)) return false;
  if (!v.valid()) {  // inverted or NaN bounds would throw in Box's ctor
    r.fail();
    return false;
  }
  return true;
}

void write_box(Writer& w, const reach::Box& b) {
  w.u64(b.dim());
  for (std::size_t i = 0; i < b.dim(); ++i) write_interval(w, b[i]);
}

bool read_box(Reader& r, reach::Box& b) {
  std::uint64_t n = 0;
  if (!read_count(r, n)) return false;
  std::vector<reach::Interval> dims(static_cast<std::size_t>(n));
  for (reach::Interval& v : dims) {
    if (!read_interval(r, v)) return false;
  }
  b = reach::Box(std::move(dims));
  return true;
}

void write_pid(Writer& w, const sim::PidGains& g) {
  w.f64(g.kp);
  w.f64(g.ki);
  w.f64(g.kd);
  w.f64(g.derivative_filter);
  w.f64(g.integral_limit);
}

bool read_pid(Reader& r, sim::PidGains& g) {
  return r.f64(g.kp) && r.f64(g.ki) && r.f64(g.kd) && r.f64(g.derivative_filter) &&
         r.f64(g.integral_limit);
}

void write_sine(Writer& w, const sim::ReferenceSine& s) {
  w.u64(s.dim);
  w.f64(s.amplitude);
  w.f64(s.period_steps);
}

bool read_sine(Reader& r, sim::ReferenceSine& s) {
  std::uint64_t dim = 0;
  if (!r.u64(dim) || !r.f64(s.amplitude) || !r.f64(s.period_steps)) return false;
  s.dim = static_cast<std::size_t>(dim);
  return true;
}

void write_fault_plan(Writer& w, const fault::FaultPlan& p) {
  w.u64(p.events().size());
  for (const fault::FaultEvent& e : p.events()) {
    w.u64(e.start);
    w.u64(e.duration);
    w.u8(static_cast<std::uint8_t>(e.kind));
  }
}

bool read_fault_plan(Reader& r, fault::FaultPlan& p) {
  std::uint64_t n = 0;
  if (!read_count(r, n)) return false;
  fault::FaultPlan plan;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t start = 0;
    std::uint64_t duration = 0;
    std::uint8_t kind = 0;
    if (!r.u64(start) || !r.u64(duration) || !r.u8(kind)) return false;
    // FaultPlan::add throws on these; reject the bytes instead.
    if (kind == 0 || kind >= fault::kFaultKindCount || duration == 0) {
      r.fail();
      return false;
    }
    plan.add(fault::FaultEvent{static_cast<std::size_t>(start),
                               static_cast<std::size_t>(duration),
                               static_cast<fault::FaultKind>(kind)});
  }
  p = std::move(plan);
  return true;
}

void write_health_config(Writer& w, const fault::HealthConfig& c) {
  w.u64(c.failsafe_after);
  w.u64(c.recover_after);
}

bool read_health_config(Reader& r, fault::HealthConfig& c) {
  std::uint64_t failsafe_after = 0;
  std::uint64_t recover_after = 0;
  if (!r.u64(failsafe_after) || !r.u64(recover_after)) return false;
  if (failsafe_after == 0 || recover_after == 0) {  // HealthMonitor's ctor throws
    r.fail();
    return false;
  }
  c.failsafe_after = static_cast<std::size_t>(failsafe_after);
  c.recover_after = static_cast<std::size_t>(recover_after);
  return true;
}

void write_metrics_options(Writer& w, const MetricsOptions& o) {
  w.f64(o.fp_threshold);
  w.u64(o.warmup);
  w.u64(o.post_attack_guard);
}

bool read_metrics_options(Reader& r, MetricsOptions& o) {
  std::uint64_t warmup = 0;
  std::uint64_t guard = 0;
  if (!r.f64(o.fp_threshold) || !r.u64(warmup) || !r.u64(guard)) return false;
  o.warmup = static_cast<std::size_t>(warmup);
  o.post_attack_guard = static_cast<std::size_t>(guard);
  return true;
}

void write_attack_kind(Writer& w, AttackKind k) { w.u8(static_cast<std::uint8_t>(k)); }

bool read_attack_kind(Reader& r, AttackKind& k) {
  std::uint8_t v = 0;
  if (!r.u8(v)) return false;
  if (v > static_cast<std::uint8_t>(AttackKind::kIntermittentBias)) {
    r.fail();
    return false;
  }
  k = static_cast<AttackKind>(v);
  return true;
}

void write_case(Writer& w, const SimulatorCase& c) {
  w.str(c.key);
  w.str(c.display_name);
  write_lti(w, c.model);
  write_box(w, c.u_range);
  w.f64(c.eps);
  w.f64(c.eps_reach);
  write_box(w, c.safe_set);
  w.vec(c.tau);
  write_pid(w, c.pid);
  w.u64(c.tracked_dims.size());
  for (std::size_t d : c.tracked_dims) w.u64(d);
  w.mat(c.output_map);
  w.vec(c.x0);
  w.vec(c.reference);
  w.u64(c.reference_schedule.size());
  for (const auto& [step, ref] : c.reference_schedule) {
    w.u64(step);
    w.vec(ref);
  }
  w.u64(c.reference_sinusoids.size());
  for (const sim::ReferenceSine& s : c.reference_sinusoids) write_sine(w, s);
  w.vec(c.sensor_noise);
  w.u64(c.max_window);
  w.u64(c.fixed_window);
  w.u64(c.steps);
  w.b(c.predict_with_commanded);
  w.u64(c.attack_start);
  w.u64(c.attack_duration);
  w.vec(c.bias);
  w.u64(c.delay_lag);
  w.u64(c.replay_record_start);
  w.vec(c.ramp_slope);
  w.f64(c.stealth_margin);
  w.u64(c.stealth_horizon);
  w.u64(c.replay_jitter);
  w.u64(c.intermittent_period);
  w.u64(c.intermittent_on);
  w.f64(c.target_far);
  w.u64(c.tune_trials);
  w.u8(static_cast<std::uint8_t>(c.reach_backend));
  w.u64(c.reach_table_cells);
  write_box(w, c.reach_table_domain);
}

bool read_case(Reader& r, SimulatorCase& c) {
  if (!r.str(c.key) || !r.str(c.display_name) || !read_lti(r, c.model) ||
      !read_box(r, c.u_range) || !r.f64(c.eps) || !r.f64(c.eps_reach) ||
      !read_box(r, c.safe_set) || !r.vec(c.tau) || !read_pid(r, c.pid)) {
    return false;
  }
  std::uint64_t n = 0;
  if (!read_count(r, n)) return false;
  c.tracked_dims.resize(static_cast<std::size_t>(n));
  for (std::size_t& d : c.tracked_dims) {
    std::uint64_t v = 0;
    if (!r.u64(v)) return false;
    d = static_cast<std::size_t>(v);
  }
  if (!r.mat(c.output_map) || !r.vec(c.x0) || !r.vec(c.reference)) return false;
  if (!read_count(r, n)) return false;
  c.reference_schedule.resize(static_cast<std::size_t>(n));
  for (auto& [step, ref] : c.reference_schedule) {
    std::uint64_t v = 0;
    if (!r.u64(v) || !r.vec(ref)) return false;
    step = static_cast<std::size_t>(v);
  }
  if (!read_count(r, n)) return false;
  c.reference_sinusoids.resize(static_cast<std::size_t>(n));
  for (sim::ReferenceSine& s : c.reference_sinusoids) {
    if (!read_sine(r, s)) return false;
  }
  std::uint64_t max_window = 0;
  std::uint64_t fixed_window = 0;
  std::uint64_t steps = 0;
  std::uint64_t attack_start = 0;
  std::uint64_t attack_duration = 0;
  std::uint64_t delay_lag = 0;
  std::uint64_t replay_record_start = 0;
  if (!r.vec(c.sensor_noise) || !r.u64(max_window) || !r.u64(fixed_window) ||
      !r.u64(steps) || !r.b(c.predict_with_commanded) || !r.u64(attack_start) ||
      !r.u64(attack_duration) || !r.vec(c.bias) || !r.u64(delay_lag) ||
      !r.u64(replay_record_start) || !r.vec(c.ramp_slope)) {
    return false;
  }
  c.max_window = static_cast<std::size_t>(max_window);
  c.fixed_window = static_cast<std::size_t>(fixed_window);
  c.steps = static_cast<std::size_t>(steps);
  c.attack_start = static_cast<std::size_t>(attack_start);
  c.attack_duration = static_cast<std::size_t>(attack_duration);
  c.delay_lag = static_cast<std::size_t>(delay_lag);
  c.replay_record_start = static_cast<std::size_t>(replay_record_start);
  std::uint64_t stealth_horizon = 0;
  std::uint64_t replay_jitter = 0;
  std::uint64_t intermittent_period = 0;
  std::uint64_t intermittent_on = 0;
  std::uint64_t tune_trials = 0;
  if (!r.f64(c.stealth_margin) || !r.u64(stealth_horizon) || !r.u64(replay_jitter) ||
      !r.u64(intermittent_period) || !r.u64(intermittent_on) || !r.f64(c.target_far) ||
      !r.u64(tune_trials)) {
    return false;
  }
  c.stealth_horizon = static_cast<std::size_t>(stealth_horizon);
  c.replay_jitter = static_cast<std::size_t>(replay_jitter);
  c.intermittent_period = static_cast<std::size_t>(intermittent_period);
  c.intermittent_on = static_cast<std::size_t>(intermittent_on);
  c.tune_trials = static_cast<std::size_t>(tune_trials);
  std::uint8_t backend = 0;
  std::uint64_t table_cells = 0;
  if (!r.u8(backend) || !r.u64(table_cells) || !read_box(r, c.reach_table_domain)) {
    return false;
  }
  if (backend > static_cast<std::uint8_t>(reach::BackendKind::kTable)) {
    r.fail();
    return false;
  }
  c.reach_backend = static_cast<reach::BackendKind>(backend);
  c.reach_table_cells = static_cast<std::size_t>(table_cells);
  return true;
}

void write_system_options(Writer& w, const DetectionSystemOptions& o) {
  w.opt_u64(o.fixed_window);
  w.f64(o.init_radius);
  write_fault_plan(w, o.fault_plan);
  write_health_config(w, o.health);
  w.u64(o.deadline_budget);
  w.b(o.lean_records);
  w.b(o.per_step_obs);
}

bool read_system_options(Reader& r, DetectionSystemOptions& o) {
  std::uint64_t deadline_budget = 0;
  if (!r.opt_u64(o.fixed_window) || !r.f64(o.init_radius) ||
      !read_fault_plan(r, o.fault_plan) || !read_health_config(r, o.health) ||
      !r.u64(deadline_budget) || !r.b(o.lean_records) || !r.b(o.per_step_obs)) {
    return false;
  }
  o.deadline_budget = static_cast<std::size_t>(deadline_budget);
  return true;
}

void write_flight_frames(Writer& w, const std::vector<obs::FlightFrame>& frames) {
  // Field by field: FlightFrame has padding, and flags widens to u32.
  std::uint8_t* p = w.extend(frames.size() * kFlightFrameBytes);
  for (const obs::FlightFrame& f : frames) {
    store_le64(p, f.t);
    store_le64(p + 8, std::bit_cast<std::uint64_t>(f.residual_norm));
    store_le64(p + 16, std::bit_cast<std::uint64_t>(f.detect_stat));
    store_le32(p + 24, f.deadline);
    store_le32(p + 28, f.window);
    store_le32(p + 32, f.flags);
    p[36] = f.fault;
    p[37] = f.health;
    p += kFlightFrameBytes;
  }
}

bool read_flight_frames(Reader& r, std::uint64_t count,
                        std::vector<obs::FlightFrame>& frames) {
  constexpr std::uint32_t kKnownFlags =
      obs::kFrameAdaptiveAlarm | obs::kFrameFixedAlarm | obs::kFrameAttackActive |
      obs::kFrameUnsafe | obs::kFrameSampleMissing | obs::kFrameEstimateFallback |
      obs::kFrameResidualQuarantined | obs::kFrameDeadlineFallback;
  const std::uint8_t* p = nullptr;
  // Checked against what is left before multiplying, so a forged count can
  // neither overflow the size nor reserve more than the payload holds.
  if (count > r.remaining() / kFlightFrameBytes) {
    r.fail();
    return false;
  }
  if (!r.take(static_cast<std::size_t>(count) * kFlightFrameBytes, p)) return false;
  frames.reserve(frames.size() + static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i, p += kFlightFrameBytes) {
    obs::FlightFrame f;
    f.t = load_le64(p);
    f.residual_norm = std::bit_cast<double>(load_le64(p + 8));
    f.detect_stat = std::bit_cast<double>(load_le64(p + 16));
    f.deadline = load_le32(p + 24);
    f.window = load_le32(p + 28);
    const std::uint32_t flags = load_le32(p + 32);
    f.fault = p[36];
    f.health = p[37];
    if ((flags & ~kKnownFlags) != 0 || f.fault >= fault::kFaultKindCount ||
        f.health > static_cast<std::uint8_t>(fault::HealthState::kFailsafe)) {
      r.fail();
      return false;
    }
    f.flags = static_cast<std::uint16_t>(flags);
    frames.push_back(f);
  }
  return true;
}

}  // namespace awd::core::ckpt
