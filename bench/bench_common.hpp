// Shared helpers for the experiment binaries.
//
// Every binary regenerates one table/figure from EXPERIMENTS.md and prints it
// in the same aligned format (util::Table).  Instances are deterministic
// (fixed seeds) so the outputs are reproducible run to run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs/json.hpp"  // the one JSON emitter every bench artifact uses
#include "schemes/registry.hpp"
#include "util/table.hpp"

namespace pls::bench {

/// Tiny shared CLI parser for the experiment binaries: boolean `--flag`s and
/// `--key VALUE` pairs, consumed by name.  After all take_* calls,
/// `unrecognized()` holds whatever was left — a non-empty leftover set is the
/// caller's usage error.  Keeps every bench's flag handling (and the shared
/// --threads/--t/--labelings trio) in one place instead of five hand-rolled
/// argv loops.
class CliArgs {
 public:
  CliArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Consumes `--name` if present; returns whether it was.
  bool take_flag(const std::string& name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] != "--" + name) continue;
      args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    return false;
  }

  /// Consumes `--name VALUE` if present; returns the value.
  std::optional<std::string> take_value(const std::string& name) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] != "--" + name) continue;
      std::string value = args_[i + 1];
      args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                  args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
    return std::nullopt;
  }

  unsigned take_unsigned(const std::string& name, unsigned fallback) {
    return parse_numeric<unsigned>(name, fallback, [](const std::string& v) {
      reject_sign(v);  // stoul would silently wrap "-1" to 4294967295
      std::size_t pos = 0;
      const unsigned long x = std::stoul(v, &pos);
      reject_trailing(v, pos);  // "8x" must not silently parse as 8
      return static_cast<unsigned>(x);
    });
  }

  std::size_t take_size(const std::string& name, std::size_t fallback) {
    return parse_numeric<std::size_t>(
        name, fallback,
        [](const std::string& v) {
          reject_sign(v);
          std::size_t pos = 0;
          const unsigned long long x = std::stoull(v, &pos);
          reject_trailing(v, pos);  // "1e3" must not silently parse as 1
          return static_cast<std::size_t>(x);
        });
  }

  double take_double(const std::string& name, double fallback) {
    return parse_numeric<double>(
        name, fallback, [](const std::string& v) {
          std::size_t pos = 0;
          const double x = std::stod(v, &pos);
          reject_trailing(v, pos);
          return x;
        });
  }

  /// Consumes `--seed VALUE` (decimal or 0x-prefixed hex): the experiment's
  /// base RNG seed.  Every bench threads it through its instance/stream
  /// generators and echoes it into the JSON it emits, so any CI artifact
  /// names the exact inputs needed to reproduce it.
  std::uint64_t take_seed(std::uint64_t fallback) {
    return parse_numeric<std::uint64_t>(
        "seed", fallback, [](const std::string& v) {
          reject_sign(v);
          // Base 10 unless explicitly 0x-prefixed: base-0 stoull would read
          // a zero-padded "0100" as octal 64, silently breaking the
          // seed-in-JSON reproduction promise.
          const bool hex = v.size() > 2 && v[0] == '0' &&
                           (v[1] == 'x' || v[1] == 'X');
          std::size_t pos = 0;
          const unsigned long long x =
              std::stoull(hex ? v.substr(2) : v, &pos, hex ? 16 : 10);
          reject_trailing(hex ? v.substr(2) : v, pos);
          return static_cast<std::uint64_t>(x);
        });
  }

  /// Arguments no take_* call claimed; non-empty means a usage error.
  const std::vector<std::string>& unrecognized() const noexcept {
    return args_;
  }

  /// Prints any parse error or unclaimed argument plus `usage`; returns
  /// whether the command line was fully valid.
  bool finish(const std::string& usage) const {
    if (error_.empty() && args_.empty()) return true;
    if (!error_.empty()) {
      std::cerr << error_ << "\n";
    } else {
      std::cerr << "unrecognized argument: " << args_.front() << "\n";
    }
    std::cerr << "usage: " << usage << "\n";
    return false;
  }

 private:
  static void reject_sign(const std::string& v) {
    if (!v.empty() && (v.front() == '-' || v.front() == '+'))
      throw std::invalid_argument("signed value for an unsigned flag");
  }

  static void reject_trailing(const std::string& v, std::size_t parsed) {
    if (parsed != v.size())
      throw std::invalid_argument("trailing characters in numeric value");
  }

  template <typename T, typename Parse>
  T parse_numeric(const std::string& name, T fallback, Parse parse) {
    const auto v = take_value(name);
    if (!v) return fallback;
    try {
      return parse(*v);
    } catch (const std::exception&) {
      if (error_.empty())
        error_ = "invalid value for --" + name + ": '" + *v + "'";
      return fallback;
    }
  }

  std::vector<std::string> args_;
  std::string error_;
};

/// Zipf(s) rank sampler: P(rank r) proportional to 1/(r+1)^s over
/// [0, n).  The skewed-popularity generator behind bench_verify_scale's
/// budget-pressure scenario — rank 0 is the hottest item; compose with a
/// random permutation so popularity is not correlated with index order.  The CDF is
/// precomputed once (O(n) setup), each sample is one uniform draw plus a
/// binary search, so the stream is deterministic given the caller's Rng.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }

  std::size_t sample(util::Rng& rng) const {
    const auto it =
        std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

inline std::shared_ptr<const graph::Graph> share(graph::Graph g) {
  return std::make_shared<const graph::Graph>(std::move(g));
}

/// Connected random graph with ~1.5n edges (the default experiment topology).
inline std::shared_ptr<const graph::Graph> standard_graph(std::size_t n,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t extra = std::min(n / 2, n * (n - 1) / 2 - (n - 1));
  return share(graph::random_connected(n, extra, rng));
}

/// Same topology with distinct random weights (MST instances).
inline std::shared_ptr<const graph::Graph> weighted_graph(std::size_t n,
                                                          std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t extra = std::min(n / 2, n * (n - 1) / 2 - (n - 1));
  return share(
      graph::reweight_random(graph::random_connected(n, extra, rng), rng));
}

/// A graph satisfying the preconditions of the given catalog entry.
inline std::shared_ptr<const graph::Graph> graph_for(
    const schemes::SchemeEntry& entry, std::size_t n, std::uint64_t seed) {
  if (entry.needs_weighted) return weighted_graph(n, seed);
  if (entry.needs_bipartite) {
    const std::size_t rows = 2;
    return share(graph::grid(rows, (n + rows - 1) / rows));
  }
  return standard_graph(n, seed);
}

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

/// Standard --seed plumbing for the table benches whose only flag it is:
/// parses `--seed S` (default 0) and rejects anything else.  Returns
/// nullopt (usage already printed) on a bad command line.  XOR the returned
/// base into each historic seed literal — base 0 reproduces the published
/// tables bit-for-bit; any other base shifts every RNG stream reproducibly.
inline std::optional<std::uint64_t> take_seed_only(int argc, char** argv,
                                                   const std::string& name) {
  CliArgs args(argc, argv);
  const std::uint64_t seed = args.take_seed(0);
  if (!args.finish(name + " [--seed S]")) return std::nullopt;
  return seed;
}

/// The reproducibility echo: every bench prints the base seed it ran under,
/// so a captured output names the exact inputs needed to regenerate it.
inline void echo_seed(std::uint64_t seed) {
  std::cout << "seed: " << seed << " (base; 0 reproduces the published "
            << "tables)\n\n";
}

}  // namespace pls::bench
