// awd tune — front end for the detector auto-tuner (DESIGN.md §16).
//
//   --target-far F    target false-alarm rate in (0,1)   (default: case's)
//   --trials N        attack-free Monte-Carlo runs per FAR measurement
//   --tolerance R     relative convergence band |far-target| <= R*target
//   --threads N       parallel_for width (results bit-identical at any N)
//   --seed S          base seed for the trial-seed derivation
//   --roc             also sweep the ROC curve and print per-scale points
//
// Prints the closed-form chi2 initialization, the bisection outcome
// (scale, tuned tau, achieved FAR vs target), the windowed-chi2/CUSUM
// parameterization, and — with --roc — the FAR/TPR trade-off plus AUC.
// Every number is a pure function of (case, options): rerunning with a
// different --threads value must reproduce the output bit for bit.
//
// Exit codes: 0 converged, 1 tuning failed or did not converge, 2 usage,
// unknown case or malformed number.
#include "cli.hpp"

namespace awd::cli {
namespace {

void print_vec(const char* label, const Vec& v) {
  std::printf("  %-18s [", label);
  for (std::size_t d = 0; d < v.size(); ++d) std::printf("%s%.6g", d == 0 ? "" : ", ", v[d]);
  std::printf("]\n");
}

int tune_one(const SimulatorCase& scase, const TuneOptions& opts, bool with_roc) {
  const Result<TuneReport> res = tune_detector(scase, opts);
  if (!res.is_ok()) {
    error(scase.key + ": " + describe(res.status()));
    return kFailed;
  }
  const TuneReport& rep = res.value();

  std::printf("%s (n=%zu, w_m=%zu)\n", scase.key.c_str(), scase.model.state_dim(),
              scase.max_window);
  print_vec("sigma", rep.sigma);
  print_vec("tau0 (chi2 init)", rep.tau0);
  print_vec("tau (tuned)", rep.tuned.tau);
  std::printf("  %-18s %.6g\n", "scale", rep.scale);
  std::printf("  %-18s %.6g\n", "chi2 threshold", rep.chi2_threshold);
  print_vec("cusum drift", rep.cusum_drift);
  print_vec("cusum threshold", rep.cusum_threshold);
  std::printf("  %-18s %.6g (target %.6g, fixed-window %.6g)\n", "achieved FAR",
              rep.achieved_far, rep.target_far, rep.achieved_far_fixed);
  std::printf("  %-18s %s after %zu measurements over %zu clean steps\n", "converged",
              rep.converged ? "yes" : "NO", rep.iterations, rep.clean_steps);

  if (with_roc) {
    RocOptions ropts;
    ropts.threads = opts.threads;
    const Result<RocCurve> roc = roc_sweep(rep.tuned, ropts);
    if (!roc.is_ok()) {
      error(scase.key + ": roc sweep failed: " + describe(roc.status()));
      return kFailed;
    }
    std::printf("  roc (%zu scales):\n", roc.value().points.size());
    for (const RocPoint& p : roc.value().points) {
      std::printf("    scale %-7.3g far %-10.6g tpr %-10.6g (%zu/%zu attacked runs)\n",
                  p.scale, p.far, p.tpr, p.detected, p.attacked_runs);
    }
    std::printf("  %-18s %.6f\n", "auc", roc.value().auc);
  }
  std::printf("\n");
  return rep.converged ? kOk : kFailed;
}

}  // namespace

int run_tune(const Args& args) {
  const std::string& key = args.at(0);
  if (args.count() != 1) usage();
  TuneOptions opts;
  opts.target_far = args.real("--target-far", opts.target_far);
  opts.trials = args.u64("--trials", opts.trials);
  opts.rel_tolerance = args.real("--tolerance", opts.rel_tolerance);
  opts.threads = args.u64("--threads", opts.threads);
  opts.base_seed = args.u64("--seed", opts.base_seed);
  const bool with_roc = args.has("--roc");

  if (key != "all") return tune_one(lookup_case(key), opts, with_roc);
  int rc = kOk;
  for (const SimulatorCase& scase : table1_cases()) rc |= tune_one(scase, opts, with_roc);
  return rc;
}

}  // namespace awd::cli
