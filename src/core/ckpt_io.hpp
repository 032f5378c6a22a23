// ckpt_io.hpp — snapshot codecs for configuration objects.
//
// The byte layer (core/ckpt.hpp) carries primitives; this header carries
// the *configuration* types a stream spec is made of: the plant model, the
// safe/actuator sets, PID gains, reference programs, fault plans and the
// engine-facing option structs.  Two uses share these functions:
//
//   * spec blocks — serve::StreamEngine serializes each stream's
//     (case, attack, seed, options) into a nested block so restore can
//     rebuild the stream from scratch on any shard layout;
//   * config fingerprints — the same bytes, hashed with fnv1a64, become the
//     snapshot header fingerprint that pairs a snapshot with its config.
//
// Writers are infallible; readers return false and latch the reader's
// error on truncation or on values that would make the reconstructed
// object unconstructible (an out-of-range enum, an inverted interval) —
// corrupt bytes must surface as typed Status errors, never as a throw from
// a config constructor.
#pragma once

#include "core/ckpt.hpp"
#include "core/config.hpp"
#include "core/detection_system.hpp"
#include "core/metrics.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "obs/flight_recorder.hpp"

namespace awd::core::ckpt {

void write_lti(Writer& w, const models::DiscreteLti& m);
[[nodiscard]] bool read_lti(Reader& r, models::DiscreteLti& m);

void write_interval(Writer& w, const reach::Interval& v);
[[nodiscard]] bool read_interval(Reader& r, reach::Interval& v);

void write_box(Writer& w, const reach::Box& b);
[[nodiscard]] bool read_box(Reader& r, reach::Box& b);

void write_pid(Writer& w, const sim::PidGains& g);
[[nodiscard]] bool read_pid(Reader& r, sim::PidGains& g);

void write_sine(Writer& w, const sim::ReferenceSine& s);
[[nodiscard]] bool read_sine(Reader& r, sim::ReferenceSine& s);

void write_fault_plan(Writer& w, const fault::FaultPlan& p);
[[nodiscard]] bool read_fault_plan(Reader& r, fault::FaultPlan& p);

void write_health_config(Writer& w, const fault::HealthConfig& c);
[[nodiscard]] bool read_health_config(Reader& r, fault::HealthConfig& c);

void write_metrics_options(Writer& w, const MetricsOptions& o);
[[nodiscard]] bool read_metrics_options(Reader& r, MetricsOptions& o);

void write_attack_kind(Writer& w, AttackKind k);
[[nodiscard]] bool read_attack_kind(Reader& r, AttackKind& k);

void write_case(Writer& w, const SimulatorCase& c);
[[nodiscard]] bool read_case(Reader& r, SimulatorCase& c);

/// The serializable subset of DetectionSystemOptions: everything except the
/// shared deadline-estimator handle, which is rebuilt from the case on
/// restore.
void write_system_options(Writer& w, const DetectionSystemOptions& o);
[[nodiscard]] bool read_system_options(Reader& r, DetectionSystemOptions& o);

/// Flight-recorder frames (DESIGN.md §15) — the payload unit of the .awdfr
/// forensic dump's frame section, kFlightFrameBytes each: t, residual_norm,
/// detect_stat, deadline, window, flags (as u32), fault, health.  The writer
/// appends the frames as one block; the reader takes `count` frames as one
/// block, appends them to `frames`, and rejects out-of-range health/fault
/// enum values and unknown flag bits, so a tampered dump can never decode
/// into frames the replay verifier would misinterpret.
inline constexpr std::size_t kFlightFrameBytes = 38;
void write_flight_frames(Writer& w, const std::vector<obs::FlightFrame>& frames);
[[nodiscard]] bool read_flight_frames(Reader& r, std::uint64_t count,
                                      std::vector<obs::FlightFrame>& frames);

}  // namespace awd::core::ckpt
