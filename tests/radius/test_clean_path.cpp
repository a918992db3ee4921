// The clean-path sweep (fragment_spread.hpp): memoize() lists a labeling's
// witnesses, centers farther than t from every witness run verify_memoized,
// and every other center runs verify_ball.  These tests plant witnesses of
// each kind (a)-(f) — one, a few and many of them — on the spanning-tree
// spread at t in {2, 4, 8} and on the weighted-MST spread, and require full
// runs and deltas to equal run_verifier_t_baseline at threads {1, 2, hw}.
// Every planted kind makes some center reject that the clean path alone
// would accept, so a witness pass that missed the kind would fail here.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "graph/algorithms.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "radius/spread_wire.hpp"
#include "schemes/mst.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using core::Labeling;
using detail::FragmentWire;
using pls::testing::path_rooted_at_end;
using pls::testing::share;
using pls::testing::stage_two;
using Nodes = std::vector<graph::NodeIndex>;

std::vector<FragmentWire> wires_of(const Labeling& lab) {
  std::vector<FragmentWire> wires;
  for (const local::Certificate& c : lab.certs) {
    auto w = detail::parse_fragment_wire(c);
    EXPECT_TRUE(w.has_value());
    wires.push_back(w.value_or(FragmentWire{}));
  }
  return wires;
}

/// The grouping key memoize() and verify_ball use: the region id, or one
/// key for every unnamed wire.
std::optional<std::uint64_t> group_key(const FragmentWire& w) {
  return w.named ? std::optional<std::uint64_t>(w.region) : std::nullopt;
}

/// A planted labeling: the nodes whose certificates changed, and the nodes
/// memoize() must list as witnesses (a subset of W; empty = only W != {}).
struct Planted {
  Labeling lab;
  std::vector<graph::NodeIndex> touched;
  std::vector<graph::NodeIndex> expected;
};

enum class Kind { kMalformed, kWrongK, kClass, kBinding, kAdjacency, kCover };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kMalformed: return "(a) malformed";
    case Kind::kWrongK: return "(b) wrong k";
    case Kind::kClass: return "(c) chunk class";
    case Kind::kBinding: return "(d) id binding";
    case Kind::kAdjacency: return "(e) residue adjacency";
    case Kind::kCover: return "(f) coverage";
  }
  return "?";
}

/// Up to `count` distinct nodes, tried in random order: `ok(v, chosen)`
/// decides whether v joins the nodes chosen so far.
template <typename Ok>
std::vector<graph::NodeIndex> pick(std::size_t n, std::size_t count,
                                   util::Rng& rng, Ok ok) {
  std::vector<graph::NodeIndex> order(n);
  for (graph::NodeIndex v = 0; v < n; ++v) order[v] = v;
  for (std::size_t i = 0; i < n; ++i)
    std::swap(order[i], order[i + rng.below(n - i)]);
  std::vector<graph::NodeIndex> chosen;
  for (const graph::NodeIndex v : order)
    if (chosen.size() < count && ok(v, chosen)) chosen.push_back(v);
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

/// Plants `count` witnesses of `kind` into the honest marking; nullopt when
/// the instance cannot carry that kind (say, residue adjacency at k < 4).
std::optional<Planted> plant(Kind kind, std::size_t count,
                             const local::Configuration& cfg,
                             const Labeling& honest, unsigned t,
                             util::Rng& rng) {
  const graph::Graph& g = cfg.graph();
  const std::size_t n = cfg.n();
  std::vector<FragmentWire> wires = wires_of(honest);
  Planted out{honest, {}, {}};
  const auto encode = [&](graph::NodeIndex v) {
    out.lab.certs[v] = detail::encode_fragment_wire(wires[v]);
    out.touched.push_back(v);
  };
  const auto same_group = [&](graph::NodeIndex a, graph::NodeIndex b) {
    return group_key(wires[a]) == group_key(wires[b]);
  };
  switch (kind) {
    case Kind::kMalformed:
      for (const graph::NodeIndex v : pick(n, count, rng, [](auto, auto&) {
             return true;
           })) {
        out.lab.certs[v] = local::random_state(rng.below(6), rng);
        out.touched.push_back(v);
      }
      out.expected = out.touched;
      break;
    case Kind::kWrongK:
      // At most a quarter of the nodes: each group's vote keeps its k.
      for (const graph::NodeIndex v : pick(n, count, rng, [](auto, auto&) {
             return true;
           })) {
        ++wires[v].k;
        encode(v);
      }
      out.expected = out.touched;
      break;
    case Kind::kClass: {
      // A second class at a (group, residue) loses its vote only while the
      // honest class keeps a strict majority there.
      std::map<std::pair<std::optional<std::uint64_t>, std::uint64_t>,
               std::size_t>
          members, flipped;
      for (const FragmentWire& w : wires) ++members[{group_key(w), w.residue}];
      for (const graph::NodeIndex v : pick(n, count, rng, [&](auto u, auto&) {
             const auto at = std::make_pair(group_key(wires[u]),
                                            wires[u].residue);
             if (wires[u].chunk.bit_size() == 0 ||
                 2 * (flipped[at] + 1) >= members[at])
               return false;
             ++flipped[at];
             return true;
           })) {
        std::vector<std::uint8_t> bytes = wires[v].chunk.bytes();
        bytes[0] ^= 1u;
        wires[v].chunk =
            util::BitString(std::move(bytes), wires[v].chunk.bit_size());
        encode(v);
      }
      if (out.touched.empty()) return std::nullopt;
      out.expected = out.touched;
      break;
    }
    case Kind::kBinding: {
      // Rename the largest group to the id of its (count+1)-th smallest
      // member: the count members below it fail the binding.  A member id
      // names no other region, and the group keeps its k, residues and
      // chunks.
      std::map<std::optional<std::uint64_t>, std::size_t> sizes;
      for (const FragmentWire& w : wires) ++sizes[group_key(w)];
      const auto largest = std::max_element(
          sizes.begin(), sizes.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      std::vector<std::pair<graph::RawId, graph::NodeIndex>> members;
      for (graph::NodeIndex v = 0; v < n; ++v)
        if (group_key(wires[v]) == largest->first)
          members.emplace_back(g.id(v), v);
      if (members.size() <= count) return std::nullopt;
      std::sort(members.begin(), members.end());
      const graph::RawId region = members[count].first;
      for (const auto& [id, v] : members) {
        wires[v].named = true;
        wires[v].region = region;
        encode(v);
        if (id < region) out.expected.push_back(v);
      }
      std::sort(out.expected.begin(), out.expected.end());
      break;
    }
    case Kind::kAdjacency:
      // Move a node two residues up, carrying that residue's chunk: its
      // in-group neighbor one residue below (or at its own residue) is now
      // three (or two) apart.  The moved nodes are pairwise non-adjacent,
      // so that neighbor stays where it was.
      for (const graph::NodeIndex v : pick(n, count, rng, [&](auto u,
                                                               auto& chosen) {
             for (const graph::AdjEntry& a : g.adjacency(u))
               if (std::find(chosen.begin(), chosen.end(), a.to) !=
                   chosen.end())
                 return false;
             const std::uint64_t k = wires[u].k;
             const std::uint64_t moved = (wires[u].residue + 2) % k;
             for (const graph::AdjEntry& a : g.adjacency(u)) {
               const std::uint64_t diff =
                   (moved + k - wires[a.to].residue) % k;
               if (same_group(u, a.to) && diff != 0 && diff != 1 &&
                   diff != k - 1)
                 return true;
             }
             return false;
           })) {
        const std::uint64_t k = wires[v].k;
        const std::uint64_t moved = (wires[v].residue + 2) % k;
        for (graph::NodeIndex u = 0; u < n; ++u)
          if (same_group(u, v) && wires[u].residue == moved) {
            wires[v].chunk = wires[u].chunk;
            break;
          }
        wires[v].residue = moved;
        encode(v);
      }
      if (out.touched.empty()) return std::nullopt;
      out.expected = out.touched;
      break;
    case Kind::kCover: {
      // Flatten the group to residue 0 (with its residue-0 chunk) on every
      // member within distance `radius` of one member: the flattened
      // interior farther than t-1 from the rest is uncovered.
      const auto seed = static_cast<graph::NodeIndex>(rng.below(n));
      const std::uint32_t radius =
          t + static_cast<std::uint32_t>(std::min<std::size_t>(count, n / 8));
      const graph::BfsResult bfs = graph::bfs(g, seed);
      std::optional<util::BitString> chunk0;
      for (graph::NodeIndex u = 0; u < n; ++u)
        if (same_group(u, seed) && wires[u].residue == 0)
          chunk0 = wires[u].chunk;
      if (!chunk0) return std::nullopt;
      for (graph::NodeIndex v = 0; v < n; ++v) {
        if (!same_group(v, seed) || bfs.dist[v] > radius ||
            wires[v].residue == 0)
          continue;
        wires[v].residue = 0;
        wires[v].chunk = *chunk0;
        encode(v);
      }
      if (out.touched.empty()) return std::nullopt;
      break;
    }
  }
  std::sort(out.touched.begin(), out.touched.end());
  return out;
}

/// Full runs and deltas on one planted labeling equal the reference engine
/// at threads {1, 2, hw}; the planted witnesses are listed.
void expect_exact(const FragmentSpreadScheme& spread,
                  const local::Configuration& cfg, unsigned t,
                  const Labeling& honest, const Planted& planted,
                  const std::string& label) {
  SCOPED_TRACE(label);
  const Nodes w = stage_two(spread, cfg, planted.lab).witnesses.value();
  EXPECT_FALSE(w.empty());
  for (const graph::NodeIndex v : planted.expected)
    EXPECT_TRUE(std::binary_search(w.begin(), w.end(), v)) << "node " << v;

  const core::Verdict oracle =
      run_verifier_t_baseline(spread, cfg, planted.lab, t);
  EXPECT_FALSE(oracle.all_accept());
  LabelingDelta there;
  there.touched = planted.touched;
  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    BatchVerifier verifier(spread, cfg, t,
                           pls::testing::split_sweep_options(threads));
    EXPECT_EQ(verifier.run_one(planted.lab).accept(), oracle.accept());
    // Deltas into and out of it from an honest resident labeling.
    EXPECT_TRUE(verifier.run_one(honest).all_accept());
    EXPECT_EQ(verifier.run_delta(planted.lab, there).accept(),
              oracle.accept());
    EXPECT_TRUE(verifier.run_delta(honest, there).all_accept());
  }
}

/// Plants every kind at each count the instance admits; returns the kinds
/// it could plant, one bit per Kind.
unsigned plant_every_kind(const FragmentSpreadScheme& spread,
                          const local::Configuration& cfg, unsigned t,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  const Labeling honest = spread.mark(cfg);
  EXPECT_EQ(stage_two(spread, cfg, honest).witnesses, Nodes{});
  unsigned planted_kinds = 0;
  const std::size_t many = std::max<std::size_t>(4, cfg.n() / 4);
  for (const Kind kind : {Kind::kMalformed, Kind::kWrongK, Kind::kClass,
                          Kind::kBinding, Kind::kAdjacency, Kind::kCover}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}, many}) {
      const std::optional<Planted> planted =
          plant(kind, count, cfg, honest, t, rng);
      if (!planted) continue;
      planted_kinds |= 1u << static_cast<unsigned>(kind);
      expect_exact(spread, cfg, t, honest, *planted,
                   std::string(spread.name()) + " " + kind_name(kind) + " x" +
                       std::to_string(count));
    }
  }
  return planted_kinds;
}

constexpr unsigned kEveryKind = (1u << 6) - 1;

TEST(CleanPath, PlantedWitnessesOnTheSpanningTreeSpreadMatchBaseline) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::Rng rng(71001);
  unsigned planted = 0;
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    planted |= plant_every_kind(spread, path_rooted_at_end(40), t, 71010 + t);
    planted |= plant_every_kind(
        spread, language.sample_legal(share(graph::grid(9, 9)), rng), t,
        71020 + t);
  }
  // Residue adjacency needs k >= 4, so t = 8 carries kind (e).
  EXPECT_EQ(planted, kEveryKind);
}

TEST(CleanPath, PlantedWitnessesOnTheMstSpreadMatchBaseline) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  util::Rng rng(71002);
  unsigned planted = 0;
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    auto g = share(graph::reweight_random(graph::grid(8, 8), rng));
    planted |=
        plant_every_kind(spread, language.sample_legal(g, rng), t, 71030 + t);
    // A path's regions are long enough for k >= 4 at t = 8, which residue
    // adjacency (e) needs.
    auto path = share(graph::reweight_random(graph::path(40), rng));
    planted |= plant_every_kind(spread, language.sample_legal(path, rng), t,
                                71040 + t);
  }
  EXPECT_EQ(planted, kEveryKind);
}

// The coverage-only witness: path(40) rooted at its end is one unnamed
// region with k = 2 at t = 2, its landmark (the lowest id, node 0) at
// residue 0.  The far half all claim residue 0 with the residue-0 chunk.
// The group still gets a memo (the near half holds both classes),
// residues stay adjacent (any two differ by at most one mod 2) and the
// binding holds; only coverage fails, at every flattened node farther than
// t-1 = 1 from a residue-1 node.
TEST(CleanPath, CoverageIsTheOnlyWitnessOfAFlattenedHalf) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  const local::Configuration cfg = path_rooted_at_end(40);
  const Labeling honest = spread.mark(cfg);
  std::vector<FragmentWire> wires = wires_of(honest);
  ASSERT_EQ(wires[0].k, 2u);
  ASSERT_FALSE(wires[0].named);
  Planted flat{honest, {}, {}};
  for (graph::NodeIndex v = 20; v < 40; ++v) {
    if (wires[v].residue == 0) continue;
    wires[v].residue = 0;
    wires[v].chunk = wires[0].chunk;
    flat.lab.certs[v] = detail::encode_fragment_wire(wires[v]);
    flat.touched.push_back(v);
  }
  // Node 20 (residue 0, honest) neighbors node 19 (residue 1); every node
  // from 21 on is two or more hops from residue 1.
  for (graph::NodeIndex v = 21; v < 40; ++v) flat.expected.push_back(v);
  EXPECT_EQ(stage_two(spread, cfg, flat.lab).witnesses, flat.expected);
  expect_exact(spread, cfg, 2, honest, flat, "flattened half");
}

// Honest spread markings carry no witnesses: every registry scheme wrapped
// at t in {2, 4, 8}, on connected instances, plus the spanning-tree and MST
// families the completeness sweeps use.
TEST(CleanPath, HonestSpreadMarkingsHaveNoWitnesses) {
  util::Rng rng(71003);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    std::shared_ptr<const graph::Graph> g;
    if (entry.needs_weighted) {
      g = share(graph::reweight_random(graph::random_connected(20, 12, rng),
                                       rng));
    } else if (entry.needs_bipartite) {
      g = share(graph::grid(3, 7));
    } else {
      g = share(graph::random_connected(20, 12, rng));
    }
    const local::Configuration cfg = entry.language->sample_legal(g, rng);
    for (const unsigned t : {2u, 4u, 8u}) {
      const FragmentSpreadScheme spread(*entry.scheme, t);
      EXPECT_EQ(stage_two(spread, cfg, spread.mark(cfg)).witnesses, Nodes{})
          << spread.name() << " on " << cfg.graph().describe();
    }
  }
  const schemes::StpLanguage stp_language;
  const schemes::StpScheme stp(stp_language);
  const schemes::MstLanguage mst_language;
  const schemes::MstScheme mst(mst_language);
  for (const unsigned t : {2u, 4u, 8u}) {
    for (auto& g : pls::testing::unweighted_family(71004)) {
      const local::Configuration cfg = stp_language.sample_legal(g, rng);
      const FragmentSpreadScheme spread(stp, t);
      EXPECT_EQ(stage_two(spread, cfg, spread.mark(cfg)).witnesses, Nodes{})
          << spread.name() << " on " << cfg.graph().describe();
    }
    for (auto& g : pls::testing::weighted_family(71005)) {
      const local::Configuration cfg = mst_language.sample_legal(g, rng);
      const FragmentSpreadScheme spread(mst, t);
      EXPECT_EQ(stage_two(spread, cfg, spread.mark(cfg)).witnesses, Nodes{})
          << spread.name() << " on " << cfg.graph().describe();
    }
  }
}

}  // namespace
}  // namespace pls::radius
