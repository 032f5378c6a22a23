// properties.hpp — internal declarations of the individual property
// functions, grouped by the layer they exercise.  Only property.cpp (the
// catalogue) and the mutation smoke driver include this; external callers
// go through property_catalogue().
#pragma once

#include "testkit/property.hpp"

namespace awd::testkit::props {

// properties_detect.cpp — logger + adaptive detector (§4.2, §5).
PropertyResult no_escape_shrink(std::uint64_t seed, const GenLimits& limits);
PropertyResult sweep_tie_not_an_alarm(std::uint64_t seed, const GenLimits& limits);
PropertyResult adaptive_matches_reference(std::uint64_t seed, const GenLimits& limits);
PropertyResult logger_matches_reference(std::uint64_t seed, const GenLimits& limits);

// properties_reach.cpp — deadline estimator (§3) and backend family
// (reach/backend.hpp).
PropertyResult deadline_cached_equals_uncached(std::uint64_t seed, const GenLimits& limits);
PropertyResult deadline_brute_force_walk(std::uint64_t seed, const GenLimits& limits);
PropertyResult deadline_witness_exact(std::uint64_t seed, const GenLimits& limits);
PropertyResult deadline_monotone_in_uncertainty(std::uint64_t seed, const GenLimits& limits);
PropertyResult backend_soundness_differential(std::uint64_t seed, const GenLimits& limits);

// properties_pipeline.cpp — full DetectionSystem + experiment engine (§6).
PropertyResult adaptive_equals_fixed_when_pinned(std::uint64_t seed, const GenLimits& limits);
PropertyResult serial_parallel_cell_identical(std::uint64_t seed, const GenLimits& limits);
PropertyResult attack_free_fp_budget(std::uint64_t seed, const GenLimits& limits);
PropertyResult replay_determinism(std::uint64_t seed, const GenLimits& limits);
PropertyResult checkpoint_roundtrip(std::uint64_t seed, const GenLimits& limits);
PropertyResult simd_scalar_differential(std::uint64_t seed, const GenLimits& limits);

// properties_adversarial.cpp — auto-tuner + detector-aware attacks
// (DESIGN.md §16).
PropertyResult tuned_far_within_tolerance(std::uint64_t seed, const GenLimits& limits);
PropertyResult stealthy_ramp_stays_sub_threshold(std::uint64_t seed, const GenLimits& limits);
PropertyResult adversarial_attack_envelopes(std::uint64_t seed, const GenLimits& limits);
PropertyResult adversarial_pipeline_determinism(std::uint64_t seed, const GenLimits& limits);

}  // namespace awd::testkit::props
