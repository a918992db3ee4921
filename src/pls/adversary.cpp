#include "pls/adversary.hpp"

#include <algorithm>
#include <unordered_map>

#include "radius/batch.hpp"
#include "util/assert.hpp"

namespace pls::core {

namespace {

/// Radius the attack runs the engine at: never below the scheme's own
/// requirement, so ball schemes always go through the t-round engine.
unsigned effective_radius(const Scheme& scheme, unsigned requested) {
  const auto* ball = dynamic_cast<const radius::BallScheme*>(&scheme);
  const unsigned need = ball != nullptr ? ball->radius() : 1;
  return std::max(std::max(requested, 1u), need);
}

Labeling uniform_labeling(std::size_t n, const Certificate& c) {
  Labeling lab;
  lab.certs.assign(n, c);
  return lab;
}

Labeling random_labeling(std::size_t n, std::size_t max_bits,
                         util::Rng& rng) {
  Labeling lab;
  lab.certs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t nbits = rng.below(max_bits + 1);
    lab.certs.push_back(local::random_state(nbits, rng));
  }
  return lab;
}

}  // namespace

AttackReport attack(const Scheme& scheme, const local::Configuration& cfg,
                    util::Rng& rng, const AttackOptions& options) {
  const std::size_t n = cfg.n();
  AttackReport report;
  report.min_rejections = n + 1;  // sentinel: worse than any real verdict

  // One batch verifier — and therefore ONE geometry atlas — for the whole
  // attack: thousands of candidate labelings are verified against the same
  // (scheme, cfg, t) triple, so ball geometry is built once per center and
  // each candidate pays only its own parse + sweep.  Sequential
  // (threads = 1): attack results must not depend on the host's core count.
  // The hill-climb is adaptive (candidate i+1 depends on verdict i), so
  // candidates are verified one run_one at a time.
  const unsigned t = effective_radius(scheme, options.rounds);
  radius::BatchOptions batch_options;
  batch_options.threads = 1;
  radius::BatchVerifier verifier(scheme, cfg, t, batch_options);
  auto consider = [&](const Labeling& lab, const std::string& strategy) {
    const Verdict verdict = verifier.run_one(lab);
    const std::size_t rej = verdict.rejections();
    if (rej < report.min_rejections) {
      report.min_rejections = rej;
      report.best_strategy = strategy;
      report.best_labeling = lab;
    }
  };

  // 1. Trivial certificates.
  consider(uniform_labeling(n, Certificate{}), "empty");
  {
    util::BitWriter w;
    const std::size_t bound =
        std::min(options.max_cert_bits,
                 scheme.proof_size_bound(n, cfg.max_state_bits()));
    for (std::size_t i = 0; i < bound; ++i) w.write_bit(false);
    consider(uniform_labeling(n, Certificate::from_writer(std::move(w))),
             "zeros");
  }

  // 2. State-derived certificates: copy each node's own state (fools schemes
  // whose certificates restate local data), and the most common state
  // uniformly (fools agreement-style schemes everywhere except the
  // minority).
  {
    Labeling copy_states;
    copy_states.certs.reserve(n);
    for (graph::NodeIndex v = 0; v < n; ++v)
      copy_states.certs.push_back(cfg.state(v));
    consider(copy_states, "copy-states");

    std::unordered_map<Certificate, std::size_t, util::BitStringHash> counts;
    for (graph::NodeIndex v = 0; v < n; ++v) ++counts[cfg.state(v)];
    const auto majority = std::max_element(
        counts.begin(), counts.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    consider(uniform_labeling(n, majority->first), "majority-state");
  }

  // 3. Honest splice: the marker's certificates for legal configurations on
  // the same graph.  This is the strongest generic attack — it feeds the
  // verifier locally-consistent data.  Some languages are not constructible
  // on some graphs (e.g. a network property on a no-instance); the strategy
  // is simply unavailable then.
  bool splice_available = true;
  for (std::size_t s = 0; s < options.splice_sources && splice_available;
       ++s) {
    try {
      const local::Configuration legal =
          scheme.language().sample_legal(cfg.graph_ptr(), rng);
      consider(scheme.mark(legal), "honest-splice");
    } catch (const std::logic_error&) {
      splice_available = false;
    }
  }

  // 4. Scheme-aware attacks: labelings the scheme itself declares as its
  // structural failure modes (for spread schemes, the splice suite — two
  // regions voting different prefixes, rotated residues, crossed chunks).
  if (const auto* ball = dynamic_cast<const radius::BallScheme*>(&scheme)) {
    for (radius::SchemeAttack& attack : ball->adversarial_labelings(cfg, rng))
      consider(attack.labeling, attack.name);
  }

  // 5. Random certificates.
  for (std::size_t trial = 0; trial < options.random_trials; ++trial)
    consider(random_labeling(n, options.max_cert_bits, rng), "random");

  // 6. Hill climbing from the best labeling found so far: replace one node's
  // certificate with a candidate drawn from (a) another node's certificate,
  // (b) a fresh legal marking, or (c) random bits; keep the move if the
  // rejection count does not increase.  Each step is a single-certificate
  // mutation of the previously verified candidate — exactly the delta
  // path's workload — so after one full seeding run the climb goes through
  // run_delta: only the mutated node is re-parsed and only the centers
  // whose ball reaches it are re-swept, with bit-identical verdicts.
  {
    Labeling current = report.best_labeling;
    std::size_t current_rej = report.min_rejections;
    Labeling donor;
    if (splice_available) {
      donor = scheme.mark(scheme.language().sample_legal(cfg.graph_ptr(), rng));
    } else {
      donor = random_labeling(n, options.max_cert_bits, rng);
    }
    // Seed the delta stream: make `current` the verifier's resident
    // labeling.  Deterministic engine, so re-verifying the best labeling
    // reproduces its recorded rejection count.  Skipped when the climb
    // below would not run at all — the seed exists only for the deltas.
    if (options.hill_climb_steps > 0 && current_rej > 0) {
      const std::size_t seeded_rej = verifier.run_one(current).rejections();
      PLS_ASSERT(seeded_rej == current_rej);
    }
    // Mutations of `current` not yet reflected in the resident labeling: a
    // rejected move's node stays touched, because reverting its certificate
    // is itself a mutation relative to the verified candidate.
    radius::LabelingDelta delta;
    for (std::size_t step = 0;
         step < options.hill_climb_steps && current_rej > 0; ++step) {
      const auto v = static_cast<graph::NodeIndex>(rng.below(n));
      const Certificate saved = current.certs[v];
      switch (rng.below(3)) {
        case 0:
          current.certs[v] = current.certs[rng.below(n)];
          break;
        case 1:
          current.certs[v] = donor.certs[v];
          break;
        default:
          current.certs[v] =
              local::random_state(rng.below(options.max_cert_bits + 1), rng);
          break;
      }
      delta.touched.push_back(v);
      const std::size_t rej = verifier.run_delta(current, delta).rejections();
      if (rej <= current_rej) {
        delta.touched.clear();
        current_rej = rej;
        if (rej < report.min_rejections) {
          report.min_rejections = rej;
          report.best_strategy = "hill-climb";
          report.best_labeling = current;
        }
      } else {
        current.certs[v] = saved;
        delta.touched.assign(1, v);
      }
    }
  }

  PLS_ASSERT(report.min_rejections <= n);
  return report;
}

std::size_t exhaustive_min_rejections(const Scheme& scheme,
                                      const local::Configuration& cfg,
                                      std::size_t max_bits) {
  PLS_REQUIRE(max_bits <= 8);
  const unsigned t = effective_radius(scheme, 1);
  radius::BatchOptions batch_options;
  batch_options.threads = 1;
  radius::BatchVerifier verifier(scheme, cfg, t, batch_options);
  // All bit strings of length 0..max_bits.
  std::vector<Certificate> alphabet;
  for (std::size_t len = 0; len <= max_bits; ++len)
    for (std::uint64_t value = 0; value < (std::uint64_t{1} << len); ++value) {
      util::BitWriter w;
      w.write_uint(value, static_cast<unsigned>(len));
      alphabet.push_back(Certificate::from_writer(std::move(w)));
    }

  const std::size_t n = cfg.n();
  PLS_REQUIRE(n <= 8);
  std::size_t best = n;
  std::vector<std::size_t> pick(n, 0);
  Labeling lab;
  lab.certs.assign(n, Certificate{});
  while (true) {
    for (std::size_t v = 0; v < n; ++v) lab.certs[v] = alphabet[pick[v]];
    best = std::min(best, verifier.run_one(lab).rejections());
    if (best == 0) return 0;
    // Odometer increment.
    std::size_t v = 0;
    while (v < n && ++pick[v] == alphabet.size()) {
      pick[v] = 0;
      ++v;
    }
    if (v == n) break;
  }
  return best;
}

}  // namespace pls::core
