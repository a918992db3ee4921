// Experiment R1 — the proof-size / verification-time tradeoff (t-PLS).
//
// Sweeps verification radius t in {1, 2, 4, 8} against network size n in
// {2^8 .. 2^14} for the spanning-tree scheme, and in {2^8, 2^10, 2^12} for
// MST, certifying over graphs with a large id space (ids up to 2^56, so the
// shared id content dominates the certificate).  t = 1 is the plain 1-round
// scheme; t > 1 is the spread transform (FragmentSpreadScheme) for both:
// the spanning tree's shared content is global, so its marking keeps one
// unnamed region per component, while Borůvka certificates share content per
// fragment, so MST joins the tradeoff curve through the region
// decomposition.  Rows report max/avg certificate bits, verifier wall-time,
// and t-round message volume as JSON.  Two gates run on every curve: the
// max certificate strictly decreases in t at the gate size (n = 4096; the
// smoke run gates n = 1024 for stp up to t = 4 and n = 256 for MST up to
// t = 2), and no spread row exceeds its size's t = 1 base row.
//
// Usage: bench_radius_tradeoff [--smoke] [--out FILE] [--scheme S]
//                              [--seed S] [--threads T] [--t T]
//                              [--labelings L]
//   --smoke       small sweep (stp: n in {256, 1024}, t in {1, 2, 4};
//                 mst: n = 256) for CI
//   --out         write the JSON there instead of stdout
//   --scheme S    restrict to one curve: "stp" or "mst" (default: both)
//   --seed S      base RNG seed for instances and configurations (echoed
//                 into the JSON; default reproduces the published curves)
//   --threads T   verifier thread count (default 1: the deterministic
//                 sequential path the published curves use)
//   --t T         restrict the radius sweep to that single t (skips both
//                 gates, which need the whole curve)
//   --labelings L verify each row's marking L times through one
//                 BatchVerifier (shared geometry atlas; verify_ms is the
//                 per-labeling average — the many-labelings regime)
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "util/assert.hpp"

namespace {

using namespace pls;

constexpr graph::RawId kIdSpace = graph::RawId{1} << 56;

struct Row {
  std::string scheme;
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t max_cert_bits = 0;
  double avg_cert_bits = 0.0;
  double verify_ms = 0.0;
  std::size_t round_bits = 0;
  bool all_accept = false;
};

std::shared_ptr<const graph::Graph> instance(std::size_t n, bool weighted,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Graph g = graph::random_connected(n, n / 2, rng);
  if (weighted) g = graph::reweight_random(g, rng);
  return std::make_shared<const graph::Graph>(
      graph::relabel_random(g, rng, kIdSpace));
}

/// Default base seed; --seed overrides.  The configuration RNG is salted so
/// the default reproduces the historical instance/configuration pair
/// (instance seed 0x9E3779B9 ^ n, configuration seed 0xC0FFEE ^ n) exactly.
constexpr std::uint64_t kDefaultSeed = 0x9E3779B9ull;
constexpr std::uint64_t kCfgSalt = 0x9E3779B9ull ^ 0xC0FFEEull;

/// Sweep-wide knobs threaded through every measure() call.
struct MeasureOptions {
  std::uint64_t seed = kDefaultSeed;  ///< base RNG seed (--seed)
  unsigned threads = 1;      ///< verifier thread count
  std::size_t labelings = 1; ///< repeats per row through one BatchVerifier
};

Row measure(const core::Scheme& scheme, const local::Configuration& cfg,
            unsigned t, const MeasureOptions& mopts) {
  Row row;
  row.scheme = std::string(scheme.name());
  row.n = cfg.n();
  row.t = t;

  const core::Labeling lab = scheme.mark(cfg);
  row.max_cert_bits = lab.max_bits();
  row.avg_cert_bits =
      static_cast<double>(lab.total_bits()) / static_cast<double>(cfg.n());

  radius::BatchOptions options;
  options.threads = mopts.threads;
  radius::BatchVerifier verifier(scheme, cfg, t, options);
  const auto start = std::chrono::steady_clock::now();
  bool all_accept = verifier.run_one(lab).all_accept();
  for (std::size_t rep = 1; rep < mopts.labelings; ++rep)
    if (!verifier.run_one(lab).all_accept()) all_accept = false;
  const auto stop = std::chrono::steady_clock::now();
  row.verify_ms =
      std::chrono::duration<double, std::milli>(stop - start).count() /
      static_cast<double>(mopts.labelings);
  row.all_accept = all_accept;
  row.round_bits = radius::verification_round_bits_t(scheme, cfg, lab, t);
  return row;
}

void emit(std::ostream& out, const std::vector<Row>& rows,
          std::uint64_t seed) {
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "radius_tradeoff");
  json.kv("id_space", kIdSpace);
  json.kv("seed", seed);
  json.key("rows");
  json.begin_array();
  for (const Row& r : rows) {
    json.begin_object();
    json.kv("scheme", r.scheme);
    json.kv("n", r.n);
    json.kv("t", r.t);
    json.kv("max_cert_bits", r.max_cert_bits);
    json.kv("avg_cert_bits", r.avg_cert_bits);
    json.kv("verify_ms", r.verify_ms);
    json.kv("round_bits", r.round_bits);
    json.kv("all_accept", r.all_accept);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  PLS_ASSERT(json.finished());
}

/// Sweeps one (language, base) curve: the base scheme at t = 1, the spread
/// transform for t > 1.
template <typename BaseScheme, typename Language>
std::vector<Row> sweep(const Language& language, const BaseScheme& base,
                       bool weighted, const std::vector<std::size_t>& sizes,
                       const std::vector<unsigned>& radii,
                       const MeasureOptions& mopts) {
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    auto g = instance(n, weighted, mopts.seed ^ n);
    util::Rng rng((mopts.seed ^ kCfgSalt) ^ n);
    const local::Configuration cfg = language.sample_legal(g, rng);
    for (const unsigned t : radii) {
      if (t == 1) {
        rows.push_back(measure(base, cfg, 1, mopts));
      } else {
        const radius::FragmentSpreadScheme spread(base, t);
        rows.push_back(measure(spread, cfg, t, mopts));
      }
      const Row& r = rows.back();
      std::cerr << r.scheme << " n=" << r.n << " t=" << r.t
                << " max_bits=" << r.max_cert_bits
                << " verify_ms=" << r.verify_ms << "\n";
      PLS_ASSERT(r.all_accept);
    }
  }
  return rows;
}

/// The acceptance gate the spread transform exists for: a curve's maximum
/// certificate strictly decreases across the radius sweep at `gate_n`, for
/// radii up to `max_t`.  Beyond the gated radii a small instance's maximum
/// may be pinned by per-node fields (MST's tree fields at n = 256) and is
/// only held by the base-row gate below.
void assert_strictly_decreasing(const std::vector<Row>& curve,
                                std::size_t gate_n, unsigned max_t) {
  std::size_t prev = 0;
  bool first = true;
  for (const Row& r : curve) {
    if (r.n != gate_n || r.t > max_t) continue;
    if (!first && r.max_cert_bits >= prev) {
      std::cerr << "FAIL: " << r.scheme
                << " max_cert_bits not strictly decreasing at n=" << gate_n
                << " (t=" << r.t << ": " << r.max_cert_bits
                << " >= " << prev << ")\n";
      std::abort();
    }
    prev = r.max_cert_bits;
    first = false;
  }
  PLS_ASSERT(!first);  // the gate rows must exist
}

/// Spreading never costs bits: every spread row's maximum certificate is at
/// most the t = 1 base row's at the same n.
void assert_spread_within_base(const std::vector<Row>& curve) {
  for (const Row& base : curve) {
    if (base.t != 1) continue;
    for (const Row& r : curve) {
      if (r.n != base.n || r.t == 1 || r.max_cert_bits <= base.max_cert_bits)
        continue;
      std::cerr << "FAIL: " << r.scheme << " at n=" << r.n
                << " max_cert_bits " << r.max_cert_bits
                << " above the t=1 base row's " << base.max_cert_bits
                << "\n";
      std::abort();
    }
  }
}

/// Appends one curve to `rows` after gating it (both gates need the whole
/// radius sweep, so a --t filter skips them).
void gate_and_append(std::vector<Row>& rows, std::vector<Row> curve,
                     bool gated, std::size_t gate_n, unsigned max_t) {
  if (gated) {
    assert_strictly_decreasing(curve, gate_n, max_t);
    assert_spread_within_base(curve);
  }
  rows.insert(rows.end(), curve.begin(), curve.end());
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliArgs args(argc, argv);
  const bool smoke = args.take_flag("smoke");
  const std::string out_path = args.take_value("out").value_or("");
  const std::string scheme_filter = args.take_value("scheme").value_or("");
  MeasureOptions mopts;
  mopts.seed = args.take_seed(kDefaultSeed);
  mopts.threads = args.take_unsigned("threads", 1);
  mopts.labelings = args.take_size("labelings", 1);
  const unsigned t_filter = args.take_unsigned("t", 0);
  if (!args.finish("bench_radius_tradeoff [--smoke] [--out FILE] "
                   "[--scheme stp|mst] [--seed S] [--threads T] [--t T] "
                   "[--labelings L]"))
    return 2;
  if (!scheme_filter.empty() && scheme_filter != "stp" &&
      scheme_filter != "mst") {
    std::cerr << "unknown --scheme " << scheme_filter
              << " (expected stp or mst)\n";
    return 2;
  }
  PLS_REQUIRE(mopts.threads >= 1 && mopts.labelings >= 1);

  std::vector<std::size_t> sizes;
  std::vector<unsigned> radii;
  std::vector<std::size_t> mst_sizes;
  if (smoke) {
    sizes = {256, 1024};
    radii = {1, 2, 4};
    mst_sizes = {256};
  } else {
    for (std::size_t n = 256; n <= 16384; n *= 2) sizes.push_back(n);
    radii = {1, 2, 4, 8};
    mst_sizes = {256, 1024, 4096};
  }
  if (t_filter != 0) radii = {t_filter};

  const bool gated = t_filter == 0;
  std::vector<Row> rows;
  if (scheme_filter.empty() || scheme_filter == "stp") {
    const schemes::StpLanguage stp_language;
    const schemes::StpScheme stp(stp_language);
    gate_and_append(rows,
                    sweep(stp_language, stp, /*weighted=*/false, sizes, radii,
                          mopts),
                    gated, smoke ? 1024 : 4096, smoke ? 4 : 8);
  }

  if (scheme_filter.empty() || scheme_filter == "mst") {
    const schemes::MstLanguage mst_language;
    const schemes::MstScheme mst(mst_language);
    gate_and_append(rows,
                    sweep(mst_language, mst, /*weighted=*/true, mst_sizes,
                          radii, mopts),
                    gated, smoke ? 256 : 4096, smoke ? 2 : 8);
  }

  if (out_path.empty()) {
    emit(std::cout, rows, mopts.seed);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    emit(out, rows, mopts.seed);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
