#include "testkit/property.hpp"

#include "testkit/properties.hpp"
#include "testkit/rng.hpp"

namespace awd::testkit {

const std::vector<Property>& property_catalogue() {
  static const std::vector<Property> kCatalogue = {
      {"no_escape_shrink", "§4.2.1, Thm. 1",
       "a marginal spike logged before a forced window shrink is still caught "
       "by the complementary sweep (no logged point escapes detection)",
       &props::no_escape_shrink},
      {"adaptive_matches_reference", "§4.2, Figs. 3-4",
       "production adaptive detector (ring-buffer logger) is bit-identical to "
       "a flat-history reference on random streams and deadline schedules",
       &props::adaptive_matches_reference},
      {"logger_matches_reference", "§5, Fig. 5",
       "window means, trusted seeds and quarantine counts of the ring-buffer "
       "Data Logger match a flat-history reference, including NaN/Inf input",
       &props::logger_matches_reference},
      {"deadline_cached_equals_uncached", "§3, Eq. 3-5",
       "the precomputed-term deadline walk equals the step-by-step reach-box "
       "recursion exactly, for random plants, seeds and uncertainty bounds",
       &props::deadline_cached_equals_uncached},
      {"deadline_brute_force_walk", "§3, Fig. 2, Def. 3.1",
       "estimate() agrees with a brute-force conservative-safety walk: safe "
       "for every t <= t_d and unsafe at t_d + 1 when t_d < w_m",
       &props::deadline_brute_force_walk},
      {"deadline_witness_exact", "§3, Eq. 4-5, Def. 3.1",
       "for t_d < w_m, the worst-case admissible trajectory attaining the "
       "reach box's failing bound at t_d + 1 stays in the safe set through "
       "t_d and leaves it at exactly t_d + 1 (sound and not conservative)",
       &props::deadline_witness_exact},
      {"deadline_monotone_in_uncertainty", "§3.2, Eq. 4-5",
       "growing eps, the initial ball, or shrinking the safe set never "
       "lengthens the estimated deadline (soundness is monotone)",
       &props::deadline_monotone_in_uncertainty},
      {"backend_soundness_differential", "§3, DESIGN.md §17",
       "the cached box walk equals the uncached recursion; the precomputed "
       "table never over-promises at in-domain seeds and serves "
       "out-of-domain queries from the nearest covered cell (clamp, not wrap)",
       &props::backend_soundness_differential},
      {"adaptive_equals_fixed_when_pinned", "§4.2 vs §4.1",
       "with an unbounded safe set the deadline pins at w_m and the adaptive "
       "detector degenerates to the fixed-window baseline step for step",
       &props::adaptive_equals_fixed_when_pinned},
      {"serial_parallel_cell_identical", "§6.1 protocol",
       "run_cell produces the same CellResult at 1 and 3 worker threads "
       "(deterministic seed partitioning + ordered reduction)",
       &props::serial_parallel_cell_identical},
      {"attack_free_fp_budget", "§6.1.2",
       "an attack-free trace with calibrated thresholds stays within the "
       "10% false-positive budget for both strategies",
       &props::attack_free_fp_budget},
      {"replay_determinism", "§6.1 protocol",
       "re-running a DetectionSystem with the same seed reproduces the trace "
       "bitwise (states, residuals, deadlines, alarms)",
       &props::replay_determinism},
      {"checkpoint_roundtrip", "DESIGN.md §13",
       "interrupting a DetectionSystem at a random step k, snapshotting it "
       "through the ckpt codec and restoring into a fresh pipeline continues "
       "the trace bitwise (states, residuals, deadlines, alarms, sweep count)",
       &props::checkpoint_roundtrip},
      {"simd_scalar_differential", "DESIGN.md §14",
       "the full pipeline run under the forced-scalar kernel set and under "
       "the best runtime SIMD set produces bitwise-identical traces and "
       "byte-identical checkpoint images, and a scalar-produced checkpoint "
       "resumed under the SIMD set continues bitwise (ULP bound 0)",
       &props::simd_scalar_differential},
      {"tuned_far_within_tolerance", "DESIGN.md §16",
       "the auto-tuner converges on random attack-free plants and its "
       "reported false-alarm rate lands inside the requested tolerance band",
       &props::tuned_far_within_tolerance},
      {"stealthy_ramp_stays_sub_threshold", "DESIGN.md §16",
       "the threshold-aware ramp injects exactly slope*min(i+1,horizon) per "
       "step and its bias never reaches margin*tau — sub-threshold by "
       "construction against the tau it was built from",
       &props::stealthy_ramp_stays_sub_threshold},
      {"adversarial_attack_envelopes", "DESIGN.md §16",
       "jittered replay, coordinated bias and intermittent injectors match "
       "independently recomputed envelopes bit-for-bit (source index, ramp "
       "level, duty cycle, clean off-phase passthrough)",
       &props::adversarial_attack_envelopes},
      {"adversarial_pipeline_determinism", "DESIGN.md §16",
       "adversarial scenarios run the full pipeline without divergence: twin "
       "runs are bitwise identical, records stay finite, and run_cell agrees "
       "across thread counts",
       &props::adversarial_pipeline_determinism},
      {"sweep_tie_not_an_alarm", "§4.1, §4.2.1, Thm. 1",
       "a spike whose shrunken-window mean sits exactly on tau is not flagged "
       "by the complementary sweep (alarms need mean > tau), and is flagged "
       "once tau is one ulp lower",
       &props::sweep_tie_not_an_alarm},
  };
  return kCatalogue;
}

const Property* find_property(std::string_view name) {
  for (const Property& p : property_catalogue()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::uint64_t trial_seed(std::uint64_t base, std::string_view property,
                         std::uint64_t index) noexcept {
  // FNV-1a over the property name, folded into the base seed and trial index
  // through the splitmix64 finalizer.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : property) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(mix64(base ^ h) + index);
}

}  // namespace awd::testkit
