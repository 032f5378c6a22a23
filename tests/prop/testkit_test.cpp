// testkit_test.cpp — gtest coverage of the property-testing kit itself:
// deterministic seeding, scenario generation under limits, the shrinker,
// the corpus loader (wired to the committed corpus via AWD_PROP_CORPUS_DIR),
// and the byte-stable JSON report.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "testkit/corpus.hpp"
#include "testkit/property.hpp"
#include "testkit/rng.hpp"
#include "testkit/runner.hpp"
#include "testkit/scenario.hpp"

namespace {

using namespace awd::testkit;

TEST(PropRngTest, SameSeedSameStream) {
  PropRng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(PropRngTest, DifferentSeedsDiverge) {
  PropRng a(1), b(2);
  bool diverged = false;
  for (int i = 0; i < 8 && !diverged; ++i) diverged = a.next() != b.next();
  EXPECT_TRUE(diverged);
}

TEST(PropRngTest, UnitStaysInHalfOpenInterval) {
  PropRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PropRngTest, RangeIsInclusiveAndHitsBothEnds) {
  PropRng rng(3);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t v = rng.range(2, 5);
    ASSERT_GE(v, 2u);
    ASSERT_LE(v, 5u);
    lo_hit |= v == 2;
    hi_hit |= v == 5;
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(PropRngTest, GaussianIsFiniteAndCentered) {
  PropRng rng(11);
  double sum = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    ASSERT_TRUE(std::isfinite(g));
    sum += g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
}

TEST(PropRngTest, ForkIsDeterministicAndSaltSensitive) {
  PropRng a(99), b(99);
  EXPECT_EQ(a.fork(1), b.fork(1));
  PropRng c(99);
  EXPECT_NE(c.fork(2), PropRng(99).fork(1));
}

TEST(TrialSeedTest, PureAndDistinctAcrossPropertiesAndIndices) {
  EXPECT_EQ(trial_seed(1, "p", 0), trial_seed(1, "p", 0));
  EXPECT_NE(trial_seed(1, "p", 0), trial_seed(1, "p", 1));
  EXPECT_NE(trial_seed(1, "p", 0), trial_seed(1, "q", 0));
  EXPECT_NE(trial_seed(1, "p", 0), trial_seed(2, "p", 0));
}

TEST(CatalogueTest, NineteenUniqueEntriesWithPaperRefs) {
  const auto& cat = property_catalogue();
  EXPECT_EQ(cat.size(), 19u);
  std::set<std::string_view> names;
  for (const Property& p : cat) {
    EXPECT_NE(p.fn, nullptr);
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.paper_ref.empty());
    EXPECT_FALSE(p.summary.empty());
    names.insert(p.name);
  }
  EXPECT_EQ(names.size(), cat.size());
}

TEST(CatalogueTest, FindPropertyRoundTripsAndRejectsUnknown) {
  for (const Property& p : property_catalogue()) {
    const Property* found = find_property(p.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->fn, p.fn);
  }
  EXPECT_EQ(find_property("no_such_property"), nullptr);
}

TEST(GenLimitsTest, DefaultFlagsAreEmpty) {
  EXPECT_EQ(GenLimits{}.flags(), "");
}

TEST(GenLimitsTest, NonDefaultFlagsRoundTripTheReplayContract) {
  GenLimits l;
  l.max_steps = 110;
  l.window_cap = 24;
  l.max_state_dim = 3;
  l.allow_attack = false;
  l.allow_perturbation = false;
  EXPECT_EQ(l.flags(),
            "--max-steps=110 --max-window=24 --max-dim=3 --no-attack --no-perturb");
}

TEST(ScenarioTest, GenerationRespectsLimitsAndValidates) {
  GenLimits limits;
  limits.max_steps = 90;
  limits.window_cap = 12;
  limits.max_state_dim = 3;
  for (std::uint64_t s = 0; s < 50; ++s) {
    PropRng rng(mix64(s));
    const Scenario sc = generate_scenario(rng, limits);
    EXPECT_LE(sc.scase.steps, 90u);
    EXPECT_LE(sc.scase.max_window, 12u);
    EXPECT_LE(sc.scase.model.state_dim(), 3u);
    EXPECT_NO_THROW(sc.scase.validate());
    EXPECT_FALSE(sc.describe().empty());
  }
}

TEST(ScenarioTest, NoAttackLimitForcesKindNone) {
  GenLimits limits;
  limits.allow_attack = false;
  for (std::uint64_t s = 0; s < 20; ++s) {
    PropRng rng(mix64(s + 1000));
    const Scenario sc = generate_scenario(rng, limits);
    EXPECT_EQ(sc.attack, awd::core::AttackKind::kNone);
    EXPECT_EQ(sc.scase.attack_duration, 0u);
  }
}

TEST(ScenarioTest, SameSeedSameScenario) {
  PropRng a(0xabc), b(0xabc);
  const Scenario x = generate_scenario(a, {});
  const Scenario y = generate_scenario(b, {});
  EXPECT_EQ(x.family, y.family);
  EXPECT_EQ(x.sim_seed, y.sim_seed);
  EXPECT_EQ(x.scase.steps, y.scase.steps);
  EXPECT_EQ(x.scase.max_window, y.scase.max_window);
  EXPECT_EQ(x.describe(), y.describe());
}

PropertyResult always_fails(std::uint64_t, const GenLimits&) {
  return PropertyResult::fail("always");
}

PropertyResult throws_logic_error(std::uint64_t, const GenLimits&) {
  throw std::logic_error("boom");
}

PropertyResult fails_only_with_attack(std::uint64_t, const GenLimits& limits) {
  return limits.allow_attack ? PropertyResult::fail("attack-dependent")
                             : PropertyResult::pass();
}

TEST(RunnerTest, RunSingleFoldsExceptionsIntoFailures) {
  const Property p{"thrower", "-", "-", &throws_logic_error};
  const PropertyResult r = run_single(p, 1, {});
  EXPECT_FALSE(r.passed);
  EXPECT_NE(r.message.find("boom"), std::string::npos);
}

TEST(RunnerTest, ShrinkerReachesMinimalLimitsOnAlwaysFailing) {
  const Property p{"always", "-", "-", &always_fails};
  std::string msg;
  std::size_t evals = 0;
  const GenLimits shrunk = shrink_failure(p, 1, {}, &msg, &evals);
  EXPECT_FALSE(shrunk.allow_attack);
  EXPECT_FALSE(shrunk.allow_perturbation);
  EXPECT_EQ(shrunk.max_state_dim, 1u);
  EXPECT_EQ(shrunk.window_cap, 4u);
  EXPECT_EQ(shrunk.max_steps, 24u);
  EXPECT_EQ(msg, "always");
  EXPECT_LE(evals, 48u);
}

TEST(RunnerTest, ShrinkerKeepsTheFailureFailing) {
  const Property p{"attacky", "-", "-", &fails_only_with_attack};
  std::string msg;
  const GenLimits shrunk = shrink_failure(p, 1, {}, &msg, nullptr);
  // Dropping the attack would make the property pass, so the shrinker must
  // keep it while still tightening everything orthogonal to the failure.
  EXPECT_TRUE(shrunk.allow_attack);
  EXPECT_EQ(shrunk.max_steps, 24u);
  EXPECT_EQ(msg, "attack-dependent");
}

TEST(RunnerTest, UnknownPropertyThrows) {
  RunnerOptions options;
  options.properties = {"definitely_not_registered"};
  EXPECT_THROW((void)run_properties(options), std::invalid_argument);
}

TEST(RunnerTest, ReplayCommandCarriesSeedAndShrunkFlags) {
  FailureReport f;
  f.property = "no_escape_shrink";
  f.trial_seed = 123456789;
  f.shrunk_limits.allow_attack = false;
  const std::string cmd = replay_command("tools/awd_prop_fuzz", f);
  EXPECT_EQ(cmd,
            "tools/awd_prop_fuzz --property=no_escape_shrink --replay=123456789 "
            "--no-attack");
}

TEST(RunnerTest, JsonReportIsByteStable) {
  RunReport report;
  report.seed = 7;
  report.trials_per_property = 2;
  PropertyReport pr;
  pr.name = "demo \"quoted\"";
  pr.trials = 2;
  pr.failures = 1;
  FailureReport f;
  f.property = pr.name;
  f.trial_index = 1;
  f.trial_seed = 99;
  f.message = "line1\nline2";
  f.shrunk_message = f.message;
  f.replay = "x --replay=99";
  pr.failure_details.push_back(f);
  report.properties.push_back(pr);

  std::ostringstream a, b;
  write_json_report(report, a);
  write_json_report(report, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"demo \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(a.str().find("line1\\nline2"), std::string::npos);
  EXPECT_NE(a.str().find("\"total_failures\": 1"), std::string::npos);
}

TEST(RunnerTest, FixedSeedRunIsReproducible) {
  RunnerOptions options;
  options.trials = 3;
  options.properties = {"replay_determinism", "deadline_brute_force_walk"};
  const RunReport a = run_properties(options);
  const RunReport b = run_properties(options);
  std::ostringstream ja, jb;
  write_json_report(a, ja);
  write_json_report(b, jb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(a.total_failures(), 0u);
}

TEST(CorpusTest, ParseRejectsMissingAndMalformedFields) {
  const std::string dir = ::testing::TempDir();
  const std::string no_prop = dir + "/no_prop.json";
  std::ofstream(no_prop) << "{\"seed\": 12}\n";
  EXPECT_THROW((void)parse_corpus_file(no_prop), std::runtime_error);

  const std::string bad_seed = dir + "/bad_seed.json";
  std::ofstream(bad_seed) << "{\"property\": \"x\", \"seed\": \"12abc\"}\n";
  EXPECT_THROW((void)parse_corpus_file(bad_seed), std::runtime_error);

  EXPECT_THROW((void)load_corpus(dir + "/does_not_exist"), std::runtime_error);
}

TEST(CorpusTest, ParseReadsAllFields) {
  const std::string path = ::testing::TempDir() + "/entry.json";
  std::ofstream(path) << "{\n  \"property\": \"no_escape_shrink\",\n"
                         "  \"seed\": 18446744073709551615,\n"
                         "  \"family\": \"dc_motor\",\n  \"note\": \"max seed\"\n}\n";
  const CorpusEntry e = parse_corpus_file(path);
  EXPECT_EQ(e.property, "no_escape_shrink");
  EXPECT_EQ(e.seed, 18446744073709551615ull);
  EXPECT_EQ(e.family, "dc_motor");
  EXPECT_EQ(e.note, "max seed");
}

// The committed corpus (tests/prop/corpus/*.json) must stay loadable, name
// only registered properties, cover every plant family, and — the point of
// committing it — keep passing when replayed in-process.
TEST(CorpusTest, CommittedCorpusLoadsAndReplaysClean) {
  const std::vector<CorpusEntry> corpus = load_corpus(AWD_PROP_CORPUS_DIR);
  ASSERT_GE(corpus.size(), 5u);

  std::set<std::string> families;
  for (const CorpusEntry& e : corpus) {
    const Property* p = find_property(e.property);
    ASSERT_NE(p, nullptr) << e.path << " names unknown property " << e.property;
    if (!e.family.empty()) families.insert(e.family);
    const ScenarioLog log;
    const PropertyResult r = run_single(*p, e.seed, {});
    EXPECT_TRUE(r.passed) << e.path << " (" << e.property << " seed " << e.seed
                          << "): " << r.message;
    // The family label is what the coverage check below counts, so it must
    // name the plant the seed actually generates.
    if (!e.family.empty()) {
      ASSERT_FALSE(log.scenarios.empty()) << e.path;
      EXPECT_EQ(log.scenarios.front().family, e.family) << e.path;
    }
  }
  for (const std::string& fam : plant_families()) {
    EXPECT_TRUE(families.count(fam)) << "no corpus entry exercises family " << fam;
  }
}

}  // namespace
