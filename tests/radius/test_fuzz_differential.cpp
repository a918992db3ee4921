// Differential fuzz: the production verify path (BatchVerifier, with
// its parse-once cache, link-phase interning, merged BFS+CSR ball reuse and
// thread-pool fan-out) must stay *bit-identical* to the naive reference
// engine run_verifier_t_baseline on adversarial input, not just on honest
// markings.  Seeded random graphs × random certificate corruptions — bit
// flips, truncations, random replacements, cert swaps — swept over every
// registry scheme, radii t ∈ {1, 2, 4}, and thread counts {1, 2, hardware},
// for both the plain scheme at radius t and its fragment spread.  This turns
// PR 2's "bit-identical at every thread count" claim into a standing fuzzed
// property.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "radius/batch.hpp"
#include "radius/delta.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/registry.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using pls::testing::share;

/// One random corruption of one node's certificate.  When `touched` is
/// given, the mutated nodes are appended to it (the delta replay's declared
/// mutation set — an over-approximation when the corruption is a no-op,
/// which is exactly what LabelingDelta permits).
core::Labeling mutate(const core::Labeling& lab, util::Rng& rng,
                      std::vector<graph::NodeIndex>* touched = nullptr) {
  core::Labeling out = lab;
  if (out.size() == 0) return out;
  const std::size_t v = rng.below(out.size());
  if (touched != nullptr) touched->push_back(static_cast<graph::NodeIndex>(v));
  switch (rng.below(4)) {
    case 0: {  // flip one bit
      const std::size_t bits = out.certs[v].bit_size();
      if (bits == 0) break;
      const std::size_t i = rng.below(bits);
      std::vector<std::uint8_t> bytes = out.certs[v].bytes();
      bytes[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
      out.certs[v] = local::Certificate(std::move(bytes), bits);
      break;
    }
    case 1: {  // truncate
      out.certs[v] =
          out.certs[v].prefix(rng.below(out.certs[v].bit_size() + 1));
      break;
    }
    case 2: {  // replace with random bits
      out.certs[v] = local::random_state(rng.below(96), rng);
      break;
    }
    default: {  // swap two nodes' certificates
      const std::size_t u = rng.below(out.size());
      if (touched != nullptr)
        touched->push_back(static_cast<graph::NodeIndex>(u));
      std::swap(out.certs[v], out.certs[u]);
      break;
    }
  }
  return out;
}

/// Asserts run_one(threads ∈ {1, 2, hardware}) ≡ baseline on `labeling`.
void expect_engines_agree(const core::Scheme& scheme,
                          const local::Configuration& cfg, unsigned t,
                          const core::Labeling& labeling,
                          const std::string& what) {
  const core::Verdict oracle =
      run_verifier_t_baseline(scheme, cfg, labeling, t);
  for (const unsigned threads : {1u, 2u, 0u}) {  // 0 = hardware
    BatchOptions options;
    options.threads = threads;
    BatchVerifier verifier(scheme, cfg, t, options);
    const core::Verdict got = verifier.run_one(labeling);
    ASSERT_EQ(oracle.accept(), got.accept())
        << scheme.name() << " diverged from the baseline at threads="
        << verifier.threads() << " (" << what << ") on "
        << cfg.graph().describe();
  }
}

void fuzz_scheme(const core::Scheme& scheme, const local::Configuration& cfg,
                 unsigned t, std::uint64_t seed, std::size_t mutations) {
  const core::Labeling honest = scheme.mark(cfg);
  expect_engines_agree(scheme, cfg, t, honest, "honest marking");
  util::Rng rng(seed);
  for (std::size_t m = 0; m < mutations; ++m)
    expect_engines_agree(scheme, cfg, t, mutate(honest, rng),
                         "mutation " + std::to_string(m));
}

TEST(FuzzDifferential, RegistrySchemesAllEnginesAgree) {
  util::Rng rng(0xD1FFu);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    std::shared_ptr<const graph::Graph> g;
    if (entry.needs_weighted) {
      g = share(graph::reweight_random(graph::random_connected(18, 12, rng),
                                       rng));
    } else if (entry.needs_bipartite) {
      g = share(graph::grid(3, 6));
    } else {
      g = share(graph::random_connected(18, 12, rng));
    }
    const local::Configuration cfg = entry.language->sample_legal(g, rng);
    for (const unsigned t : {1u, 2u, 4u}) {
      // The registry scheme itself, run at radius t (1-round decoders are
      // radius-invariant; the engines still must agree bit-for-bit)...
      fuzz_scheme(*entry.scheme, cfg, t, 0xF00Du ^ (t * 7919), 8);
      // ...and its fragment spread, whose parse cache, interning and
      // region-grouped verify_ball are the hot paths under test.
      const FragmentSpreadScheme spread(*entry.scheme, t);
      fuzz_scheme(spread, cfg, t, 0xBEEFu ^ (t * 104729), 8);
    }
  }
}

// The batch pipeline AND the delta path under the same fuzz: a whole
// mutation trail is run (a) as ONE BatchVerifier batch (stage 2 of labeling
// i+1 overlapping the sweep of labeling i, all labelings sharing one
// geometry atlas), and (b) as a delta stream — one full seeding run, then
// run_delta per step with exactly the mutated nodes declared.  Both must
// stay bit-identical to per-labeling baseline verdicts at every thread
// count.  The batch leg is the differential form of the parse-cache
// invalidation regression (adjacent labelings differ by swaps and rewrites,
// so any parse or geometry surviving a labeling boundary flips a verdict);
// the delta leg additionally fuzzes carry-forward itself — stale interned
// class ids, dirty-set under-approximation, or a mis-spliced verdict all
// diverge here.  Every trail deliberately contains a mutate-BACK step (a
// certificate restored to its previous value, the stable-interning trap)
// and a step touching the component's landmark — the min-id node whose
// certificate binds the region/residue structure of the spread schemes.
TEST(FuzzDifferential, BatchedMutationTrailsMatchPerLabelingBaseline) {
  util::Rng rng(0xBA7C4u);
  const auto catalog = schemes::standard_catalog();
  for (const schemes::SchemeEntry& entry : catalog) {
    std::shared_ptr<const graph::Graph> g;
    if (entry.needs_weighted) {
      g = share(graph::reweight_random(graph::random_connected(16, 10, rng),
                                       rng));
    } else if (entry.needs_bipartite) {
      g = share(graph::grid(3, 5));
    } else {
      g = share(graph::random_connected(16, 10, rng));
    }
    const local::Configuration cfg = entry.language->sample_legal(g, rng);

    graph::NodeIndex landmark = 0;
    for (graph::NodeIndex v = 1; v < g->n(); ++v)
      if (g->id(v) < g->id(landmark)) landmark = v;

    // The plain registry scheme's own trail through the delta path (its
    // decoders are radius-invariant, so one t is enough: dirty sets are the
    // closed neighborhoods of the mutated nodes).
    {
      std::vector<core::Labeling> trail;
      std::vector<LabelingDelta> deltas;
      trail.push_back(entry.scheme->mark(cfg));
      for (int m = 0; m < 4; ++m) {
        std::vector<graph::NodeIndex> touched;
        core::Labeling next = mutate(trail.back(), rng, &touched);
        trail.push_back(std::move(next));
        deltas.push_back(LabelingDelta{std::move(touched)});
      }
      std::vector<core::Verdict> oracle;
      for (const core::Labeling& lab : trail)
        oracle.push_back(run_verifier_t_baseline(*entry.scheme, cfg, lab, 2));
      for (const unsigned threads : {1u, 2u, 0u}) {
        BatchOptions options;
        options.threads = threads;
        BatchVerifier delta_verifier(*entry.scheme, cfg, 2, options);
        ASSERT_EQ(oracle[0].accept(),
                  delta_verifier.run_one(trail[0]).accept());
        for (std::size_t i = 1; i < trail.size(); ++i)
          ASSERT_EQ(oracle[i].accept(),
                    delta_verifier.run_delta(trail[i], deltas[i - 1]).accept())
              << entry.label << " plain delta step " << i << " threads "
              << delta_verifier.threads();
      }
    }

    for (const unsigned t : {1u, 2u, 4u}) {
      const FragmentSpreadScheme spread(*entry.scheme, t);

      std::vector<core::Labeling> trail;
      std::vector<LabelingDelta> deltas;  // per step, vs the previous one
      trail.push_back(spread.mark(cfg));
      const auto push = [&](core::Labeling lab,
                            std::vector<graph::NodeIndex> touched) {
        trail.push_back(std::move(lab));
        deltas.push_back(LabelingDelta{std::move(touched)});
      };
      for (int m = 0; m < 3; ++m) {
        std::vector<graph::NodeIndex> touched;
        core::Labeling next = mutate(trail.back(), rng, &touched);
        push(std::move(next), std::move(touched));
      }
      {
        // Mutate one certificate back to its honest (initial) value.
        const auto v = static_cast<graph::NodeIndex>(rng.below(cfg.n()));
        core::Labeling next = trail.back();
        next.certs[v] = trail.front().certs[v];
        push(std::move(next), {v});
        // Corrupt the landmark, then restore it.
        core::Labeling tampered = trail.back();
        tampered.certs[landmark] = local::random_state(rng.below(64), rng);
        push(std::move(tampered), {landmark});
        core::Labeling restored = trail.back();
        restored.certs[landmark] = trail.front().certs[landmark];
        push(std::move(restored), {landmark});
      }

      std::vector<core::Verdict> oracle;
      for (const core::Labeling& lab : trail)
        oracle.push_back(run_verifier_t_baseline(spread, cfg, lab, t));

      for (const unsigned threads : {1u, 2u, 0u}) {  // 0 = hardware
        BatchOptions options;
        options.threads = threads;
        BatchVerifier batch(spread, cfg, t, options);
        const std::vector<core::Verdict> got = batch.run(trail);
        ASSERT_EQ(got.size(), trail.size());
        for (std::size_t i = 0; i < trail.size(); ++i)
          ASSERT_EQ(oracle[i].accept(), got[i].accept())
              << entry.label << " trail step " << i << " threads "
              << batch.threads();

        // The same trail as a delta stream over a fresh verifier.
        BatchVerifier delta_verifier(spread, cfg, t, options);
        ASSERT_EQ(oracle[0].accept(),
                  delta_verifier.run_one(trail[0]).accept());
        for (std::size_t i = 1; i < trail.size(); ++i)
          ASSERT_EQ(oracle[i].accept(),
                    delta_verifier.run_delta(trail[i], deltas[i - 1]).accept())
              << entry.label << " delta step " << i << " t " << t
              << " threads " << delta_verifier.threads();
      }
    }
  }
}

// A second, smaller sweep over a graph family with structure the random
// instances lack (paths, cycles, stars: long balls, pendant nodes).
TEST(FuzzDifferential, StructuredGraphsAllEnginesAgree) {
  const auto catalog = schemes::standard_catalog();
  const schemes::SchemeEntry* stp = nullptr;
  for (const schemes::SchemeEntry& entry : catalog)
    if (entry.label == "stp") stp = &entry;
  ASSERT_NE(stp, nullptr);
  util::Rng rng(0x57A7u);
  for (auto& g : {share(graph::path(13)), share(graph::cycle(12)),
                  share(graph::star(9))}) {
    const local::Configuration cfg = stp->language->sample_legal(g, rng);
    for (const unsigned t : {2u, 4u}) {
      const FragmentSpreadScheme spread(*stp->scheme, t);
      fuzz_scheme(spread, cfg, t, 0xCAFEu ^ (t * 31), 10);
    }
  }
}

}  // namespace
}  // namespace pls::radius
