// Single-labeling sessions through BatchVerifier::run_one: parse-once +
// parallel sweeps must be bit-identical to the sequential path and to the
// baseline reference engine, across the full scheme registry, random graphs,
// and thread counts 1 / 2 / hardware.
#include "radius/batch.hpp"

#include <gtest/gtest.h>

#include "radius/spread.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using core::Labeling;
using core::Verdict;
using pls::testing::share;

std::shared_ptr<const graph::Graph> graph_for(
    const schemes::SchemeEntry& entry, util::Rng& rng) {
  if (entry.needs_weighted)
    return share(
        graph::reweight_random(graph::random_connected(14, 10, rng), rng));
  if (entry.needs_bipartite) return share(graph::grid(2, 7));
  return share(graph::random_connected(14, 10, rng));
}

Labeling random_labeling(std::size_t n, util::Rng& rng) {
  Labeling lab;
  for (std::size_t v = 0; v < n; ++v)
    lab.certs.push_back(local::random_state(rng.below(96), rng));
  return lab;
}

void expect_same_verdict(const Verdict& a, const Verdict& b,
                         const std::string& label) {
  ASSERT_EQ(a.accept().size(), b.accept().size()) << label;
  for (std::size_t v = 0; v < a.accept().size(); ++v)
    EXPECT_EQ(a.accept()[v], b.accept()[v]) << label << " node " << v;
}

/// The single-labeling property: run_verifier_t (sequential run_one), the
/// baseline engine, and parallel run_one at 2 and hardware threads all
/// return bit-identical verdicts.
void expect_engines_agree(const core::Scheme& scheme,
                          const local::Configuration& cfg,
                          const Labeling& lab, unsigned t,
                          const std::string& label) {
  const Verdict reference = run_verifier_t_baseline(scheme, cfg, lab, t);
  expect_same_verdict(reference, run_verifier_t(scheme, cfg, lab, t),
                      label + "/sequential");
  for (const unsigned threads :
       {2u, util::ThreadPool::hardware_threads()}) {
    BatchOptions options;
    options.threads = threads;
    BatchVerifier verifier(scheme, cfg, t, options);
    expect_same_verdict(reference, verifier.run_one(lab),
                        label + "/threads=" + std::to_string(threads));
  }
}

// Property test over the whole registry: plain 1-round schemes through the
// run_one, on honest, corrupted-state, and garbage labelings.
TEST(Session, RegistryVerdictsMatchAcrossThreadCounts) {
  util::Rng rng(40902);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    auto g = graph_for(entry, rng);
    const local::Configuration legal = entry.language->sample_legal(g, rng);
    const Labeling honest = entry.scheme->mark(legal);
    expect_engines_agree(*entry.scheme, legal, honest, 1,
                         entry.label + "/honest");

    const auto corrupted = local::corrupt_random_states(legal, 3, rng);
    expect_engines_agree(*entry.scheme, corrupted.config, honest, 2,
                         entry.label + "/corrupted");

    for (int trial = 0; trial < 4; ++trial)
      expect_engines_agree(*entry.scheme, legal,
                           random_labeling(legal.n(), rng), 1,
                           entry.label + "/garbage");
  }
}

// Ball schemes: the parse-once cache plus the thread pool must not change a
// single verdict bit relative to the cache-less, sequential baseline.
TEST(Session, SpreadVerdictsMatchAcrossThreadCounts) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::Rng rng(40903);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    for (int instance = 0; instance < 3; ++instance) {
      auto g = share(graph::random_connected(20 + 5 * instance, 12, rng));
      const local::Configuration cfg = language.sample_legal(g, rng);
      const Labeling honest = spread.mark(cfg);
      expect_engines_agree(spread, cfg, honest, t, "spread-honest");

      Labeling tampered = honest;
      tampered.certs[rng.below(cfg.n())] =
          local::random_state(24, rng);
      expect_engines_agree(spread, cfg, tampered, t, "spread-tampered");

      expect_engines_agree(spread, cfg, random_labeling(cfg.n(), rng), t,
                           "spread-garbage");
    }
  }
}

// One verifier, many labelings: the adversary's usage pattern.  The parse
// cache is rebuilt per run; ball scratch persists.
TEST(Session, ReuseAcrossLabelingsMatchesFreshEngines) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 4);
  util::Rng rng(40904);
  auto g = share(graph::grid(4, 5));
  const local::Configuration cfg = language.sample_legal(g, rng);

  BatchOptions options;
  options.threads = 2;
  BatchVerifier verifier(spread, cfg, 4, options);
  const Labeling honest = spread.mark(cfg);
  for (int round = 0; round < 5; ++round) {
    Labeling lab = honest;
    for (int k = 0; k < round; ++k)
      lab.certs[rng.below(cfg.n())] = local::random_state(rng.below(40), rng);
    expect_same_verdict(run_verifier_t_baseline(spread, cfg, lab, 4),
                        verifier.run_one(lab), "round " + std::to_string(round));
  }
}

// A certificate the parser rejects (parse_cert -> nullptr) must reject every
// ball that contains the node, identically with and without the cache.
TEST(Session, MalformedCertificatesRejectThroughCache) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 2);
  util::Rng rng(40905);
  auto g = share(graph::path(7));
  const local::Configuration cfg = language.sample_legal(g, rng);
  Labeling lab = spread.mark(cfg);
  lab.certs[3] = local::Certificate{};  // empty: k field unreadable
  const Verdict reference = run_verifier_t_baseline(spread, cfg, lab, 2);
  EXPECT_GE(reference.rejections(), 1u);
  expect_engines_agree(spread, cfg, lab, 2, "malformed");
}

TEST(Session, PlainSchemeMatchesOneRoundEngine) {
  util::Rng rng(40906);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    auto g = graph_for(entry, rng);
    const local::Configuration legal = entry.language->sample_legal(g, rng);
    const Labeling honest = entry.scheme->mark(legal);
    BatchOptions options;
    options.threads = 2;
    BatchVerifier verifier(*entry.scheme, legal, 1, options);
    expect_same_verdict(core::run_verifier(*entry.scheme, legal, honest),
                        verifier.run_one(honest), entry.label);
  }
}

TEST(Session, InputValidation) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 4);
  auto g = share(graph::path(5));
  const auto cfg = language.make_tree(g, 0);
  // t = 0 and t below the scheme's radius are invalid input.
  EXPECT_THROW(BatchVerifier(spread, cfg, 0), std::logic_error);
  EXPECT_THROW(BatchVerifier(spread, cfg, 2), std::logic_error);
  // Labeling size mismatch is caught per run.
  BatchVerifier verifier(spread, cfg, 4);
  core::Labeling wrong;
  wrong.certs.assign(2, local::Certificate{});
  EXPECT_THROW(verifier.run_one(wrong), std::logic_error);
}

}  // namespace
}  // namespace pls::radius
