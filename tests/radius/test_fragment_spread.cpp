// FragmentSpreadScheme: completeness and soundness of the region-decomposed
// t-PLS transform, the per-region proof-size bound, and the MST tradeoff it
// exists to realize.
#include "radius/fragment_spread.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "radius/batch.hpp"
#include "radius/spread_wire.hpp"
#include "schemes/agree.hpp"
#include "schemes/common.hpp"
#include "schemes/mst.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"
#include "util/rng.hpp"

namespace pls::radius {
namespace {

using pls::testing::expect_complete_t;
using pls::testing::path_rooted_at_end;
using pls::testing::share;
using pls::testing::stage_two;

std::vector<detail::FragmentWire> parse_all(const core::Labeling& lab) {
  std::vector<detail::FragmentWire> wires;
  for (const local::Certificate& c : lab.certs) {
    auto wire = detail::parse_fragment_wire(c);
    EXPECT_TRUE(wire.has_value());
    if (wire) wires.push_back(std::move(*wire));
  }
  return wires;
}

/// The marker names a region iff the region has a boundary edge: an edge
/// whose endpoints sit in different regions joins two named ones, and
/// every named region has such an edge.
void expect_named_iff_boundary(const graph::Graph& g,
                               const core::Labeling& lab) {
  const std::vector<detail::FragmentWire> wires = parse_all(lab);
  ASSERT_EQ(wires.size(), g.n());
  std::set<std::uint64_t> named;
  for (const detail::FragmentWire& w : wires)
    if (w.named) named.insert(w.region);
  std::set<std::uint64_t> bordered;
  for (graph::EdgeIndex e = 0; e < g.m(); ++e) {
    const detail::FragmentWire& a = wires[g.edge(e).u];
    const detail::FragmentWire& b = wires[g.edge(e).v];
    if (!a.named && !b.named) continue;
    ASSERT_TRUE(a.named && b.named) << "unnamed region has a boundary edge";
    if (a.region == b.region) continue;
    bordered.insert(a.region);
    bordered.insert(b.region);
  }
  EXPECT_EQ(named, bordered);
}

TEST(FragmentSpread, MstCompletenessSweep) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::weighted_family(307)) {
      util::Rng rng(311);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

TEST(FragmentSpread, StpCompletenessSweep) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::unweighted_family(313)) {
      util::Rng rng(317);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

// The full adversary suite (including the fragment splice attacks) drives
// the t-round engine against the fragment spread on illegal configurations.
TEST(FragmentSpread, MstSoundOnWrongSpanningTree) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  util::Rng grng(331);
  auto g = share(graph::reweight_random(graph::cycle(8), grng));
  // A cycle's MST drops the unique maximum-weight edge; dropping any other
  // edge yields a spanning tree that is connected but not minimal.
  graph::EdgeIndex heaviest = 0;
  for (graph::EdgeIndex e = 1; e < g->m(); ++e)
    if (g->weight(e) > g->weight(heaviest)) heaviest = e;
  std::vector<bool> mask(g->m(), true);
  mask[heaviest == 0 ? 1 : 0] = false;
  const local::Configuration cfg = language.make_from_mask(g, mask);
  ASSERT_FALSE(language.contains(cfg));
  for (const unsigned t : {2u, 4u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 337 + t);
  }
}

TEST(FragmentSpread, StpSoundOnTwoRoots) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::path(6));
  auto cfg = language.make_tree(g, 0).with_state(
      3, schemes::encode_pointer(std::nullopt));
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 347);
  }
}

TEST(FragmentSpread, TamperedCertificateRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(349);
  auto g = share(graph::reweight_random(graph::grid(4, 4), rng));
  const auto cfg = language.sample_legal(g, rng);
  core::Labeling lab = spread.mark(cfg);
  lab.certs[5] = local::random_state(lab.certs[5].bit_size(), rng);
  EXPECT_GE(run_verifier_t(spread, cfg, lab, 4).rejections(), 1u);
}

// A region is named by its minimum-id member: inflating one node's claimed
// region id above its own id must be caught by the landmark binding even
// when everything else stays consistent.
TEST(FragmentSpread, RegionIdAboveOwnIdRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(353);
  auto g = share(graph::reweight_random(graph::path(7), rng));
  const auto cfg = language.sample_legal(g, rng);
  core::Labeling lab = spread.mark(cfg);
  // The landmark of the minimum node's region *is* the global minimum id:
  // bump every certificate's region id past it.
  for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
    auto wire = detail::parse_fragment_wire(lab.certs[v]);
    ASSERT_TRUE(wire.has_value());
    wire->region = g->max_id() + 1;
    lab.certs[v] = detail::encode_fragment_wire(*wire);
  }
  EXPECT_GE(run_verifier_t(spread, cfg, lab, 4).rejections(), 1u);
}

TEST(FragmentSpread, RadiusBeyondDiameterStillComplete) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 32);
  util::Rng rng(359);
  auto g = share(graph::reweight_random(graph::path(6), rng));
  expect_complete_t(spread, language.sample_legal(g, rng));
}

// Region decomposition works per component: two components, landmark BFS
// and chunk classes confined to each, certificates-only visibility.
TEST(FragmentSpread, DisconnectedAgreeComponents) {
  const schemes::AgreeLanguage language(48);
  const schemes::AgreeScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  graph::Graph::Builder b;
  for (graph::RawId id = 1; id <= 7; ++id) b.add_node(id);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);  // path 0-1-2-3
  b.add_edge(4, 5);
  b.add_edge(5, 6);  // path 4-5-6
  auto g = share(std::move(b).build());
  ASSERT_FALSE(g->is_connected());
  std::vector<local::State> states(
      g->n(), language.encode_value(0xBEEF'CAFE'1234ull));
  const local::Configuration cfg(g, states);
  ASSERT_TRUE(language.contains(cfg));
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_TRUE(run_verifier_t(spread, cfg, lab, 4).all_accept());
  // Each component is one whole region, so no certificate spells an id.
  expect_named_iff_boundary(*g, lab);
  for (const detail::FragmentWire& w : parse_all(lab)) EXPECT_FALSE(w.named);
}

TEST(FragmentSpread, InvalidRadiiRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  EXPECT_THROW(FragmentSpreadScheme(base, 0), std::logic_error);
  EXPECT_THROW(FragmentSpreadScheme(base, 64), std::logic_error);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(367);
  auto g = share(graph::reweight_random(graph::path(5), rng));
  const auto cfg = language.sample_legal(g, rng);
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_THROW(run_verifier_t(spread, cfg, lab, 2), std::logic_error);
  EXPECT_THROW(core::run_verifier(spread, cfg, lab), std::logic_error);
}

// The point of the subsystem: MST's Borůvka certificates share content per
// fragment, and the fragment decomposition converts that into a max
// certificate strictly below the base scheme's — which the *global* spread
// cannot do to any comparable degree, because the shared content sits in
// per-fragment prefixes.  At this small n the curve is strict into t = 2
// and monotone beyond (the per-node T1/T2 fields dominate the maximum once
// the shareable prefix is sharded; bench_radius_tradeoff measures the
// strict full-curve decrease at n = 4096).
TEST(FragmentSpread, MstMaxBitsDecreaseWithRadius) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  util::Rng rng(373);
  auto g = share(graph::relabel_random(
      graph::reweight_random(graph::random_connected(256, 128, rng), rng),
      rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);

  const std::size_t base_bits = base.mark(cfg).max_bits();
  std::size_t prev = base_bits;
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    const std::size_t bits = spread.mark(cfg).max_bits();
    EXPECT_LE(bits, prev) << "t=" << t;
    prev = bits;
  }
  // The whole sweep must beat the base certificate by a real margin, not a
  // header's worth: the fragment decomposition sharded per-fragment content
  // the global transform cannot see.
  EXPECT_LT(prev + 64, base_bits);
}

// The decomposition actually engages for MST: the marked certificates carry
// more than one region, i.e. the evaluator preferred a Borůvka phase over
// the trivial global candidate.
TEST(FragmentSpread, MstDecompositionIsNontrivial) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(379);
  auto g = share(graph::relabel_random(
      graph::reweight_random(graph::random_connected(256, 128, rng), rng),
      rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);
  const core::Labeling lab = spread.mark(cfg);
  std::set<std::uint64_t> regions;
  for (const local::Certificate& c : lab.certs) {
    const auto wire = detail::parse_fragment_wire(c);
    ASSERT_TRUE(wire.has_value());
    regions.insert(wire->region);
  }
  EXPECT_GT(regions.size(), 1u);
  // Every region of a multi-region marking borders another, so all are
  // named.
  expect_named_iff_boundary(*g, lab);
  for (const detail::FragmentWire& w : parse_all(lab)) EXPECT_TRUE(w.named);
}

// The spanning tree's shared content (the root id) is global, so on a
// connected graph the marker keeps the whole graph as one unnamed region:
// the header spells no region id and the curve matches one global prefix.
TEST(FragmentSpread, StpOnConnectedGraphIsUnnamed) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::Rng rng(389);
  auto g = share(graph::relabel_random(graph::random_connected(256, 128, rng),
                                       rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    const core::Labeling lab = spread.mark(cfg);
    expect_named_iff_boundary(*g, lab);
    for (const detail::FragmentWire& w : parse_all(lab))
      EXPECT_FALSE(w.named) << spread.name();
  }
}

// t = 63 is the largest radius: k = min(t/2 + 1, ecc + 1) = 32 on a path
// long enough, the most the 5-bit chunk-count field holds.
TEST(FragmentSpread, ChunkCountBoundaryAtMaxRadius) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 63);
  auto g = share(graph::path(70));
  const auto cfg = language.make_tree(g, 5);
  const core::Labeling lab = spread.mark(cfg);
  for (const detail::FragmentWire& w : parse_all(lab)) EXPECT_EQ(w.k, 32u);
  expect_complete_t(spread, cfg);
}

// A node whose tag is flipped leaves its region's group in every ball:
// alone in its new group it cannot cover the k >= 2 chunk classes, so the
// flip is rejected, at every thread count.
TEST(FragmentSpread, FlippedTagInMstMarkingRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(397);
  auto g = share(graph::relabel_random(
      graph::reweight_random(graph::random_connected(48, 24, rng), rng), rng,
      graph::RawId{1} << 40));
  const auto cfg = language.sample_legal(g, rng);
  const core::Labeling honest = spread.mark(cfg);
  const std::vector<detail::FragmentWire> wires = parse_all(honest);
  std::size_t flipped = 0;
  for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
    if (wires[v].k < 2) continue;
    ++flipped;
    detail::FragmentWire wire = wires[v];
    wire.named = !wire.named;
    core::Labeling lab = honest;
    lab.certs[v] = detail::encode_fragment_wire(wire);
    for (const unsigned threads : {1u, 2u, 0u}) {  // 0 = hardware
      const BatchOptions options = pls::testing::split_sweep_options(threads);
      BatchVerifier verifier(spread, cfg, 4, options);
      EXPECT_GE(verifier.run_one(lab).rejections(), 1u)
          << "node " << v << " threads=" << verifier.threads();
    }
  }
  EXPECT_GT(flipped, 0u);
}

// Registry-wide proof-size bound property: every marked fragment-spread
// certificate fits the bound at every radius, with the per-region factor
// header (k, residue, region id, suffix length) measured independently by
// parsing the wire rather than restating the production formula; the bound
// stays below the old residue-at-its-ceiling formula; and the transform is
// complete across the whole registry.
TEST(FragmentSpread, ProofSizeBoundCoversRegistryAtAllRadii) {
  util::Rng rng(383);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    std::shared_ptr<const graph::Graph> g;
    if (entry.needs_weighted) {
      g = share(graph::reweight_random(graph::random_connected(14, 10, rng),
                                       rng));
    } else if (entry.needs_bipartite) {
      g = share(graph::grid(2, 7));
    } else {
      g = share(graph::random_connected(14, 10, rng));
    }
    const local::Configuration cfg = entry.language->sample_legal(g, rng);
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
      const FragmentSpreadScheme spread(*entry.scheme, t);
      const core::Labeling lab = spread.mark(cfg);
      const std::size_t bound =
          spread.proof_size_bound(cfg.n(), cfg.max_state_bits());
      EXPECT_GE(bound, lab.max_bits())
          << spread.name() << " bound below an actual certificate on "
          << cfg.graph().describe();

      // Independent header check: header = total - suffix - chunk must fit
      // the bound's header budget (bound - base bound) at every node.
      const std::size_t base_bound =
          entry.scheme->proof_size_bound(cfg.n(), cfg.max_state_bits());
      ASSERT_GE(bound, base_bound);
      const std::size_t header_budget = bound - base_bound;
      for (const local::Certificate& cert : lab.certs) {
        const auto wire = detail::parse_fragment_wire(cert);
        ASSERT_TRUE(wire.has_value()) << spread.name();
        const std::size_t measured_header = cert.bit_size() -
                                            wire->suffix.bit_size() -
                                            wire->chunk.bit_size();
        EXPECT_LE(measured_header, header_budget) << spread.name();
      }

      // Tightness regression: the residue field is sized by k <= t/2 + 1,
      // so for t <= 8 the bound must be strictly below the old formula that
      // budgeted the residue at the 6-bit header's ceiling (the region id
      // budget is the same on both sides).
      EXPECT_LT(bound, base_bound + detail::kHeaderBits +
                           util::bit_width_for(62) +
                           detail::varint_bits(16 * cfg.n() * cfg.n() + 1) +
                           detail::varint_bits(base_bound))
          << spread.name();

      // And the transform is complete across the whole registry.
      const core::Verdict verdict = run_verifier_t(spread, cfg, lab, t);
      EXPECT_TRUE(verdict.all_accept())
          << spread.name() << " rejected a legal configuration on "
          << cfg.graph().describe();
    }
  }
}

util::BitString random_bits(util::Rng& rng, std::size_t nbits) {
  util::BitWriter w;
  for (std::size_t left = nbits; left > 0;) {
    const auto take = static_cast<unsigned>(std::min<std::size_t>(left, 64));
    w.write_uint(rng.bits(), take);
    left -= take;
  }
  return util::BitString::from_writer(std::move(w));
}

std::vector<const util::BitString*> pointers(
    const std::vector<util::BitString>& chunks) {
  std::vector<const util::BitString*> ptrs;
  for (const util::BitString& c : chunks) ptrs.push_back(&c);
  return ptrs;
}

TEST(FragmentSpread, ShardAndReassembleRoundTrip) {
  util::Rng rng(0x5A4D);
  for (std::size_t k = 1; k <= 32; ++k)
    for (std::size_t len = 0; len <= 300; ++len) {
      const util::BitString x = random_bits(rng, len);
      const std::vector<util::BitString> chunks = detail::shard_chunks(x, k);
      ASSERT_EQ(chunks.size(), k);
      const auto back = detail::reassemble_chunks(pointers(chunks));
      ASSERT_TRUE(back.has_value()) << "k " << k << " len " << len;
      ASSERT_EQ(*back, x) << "k " << k << " len " << len;
    }
}

TEST(FragmentSpread, ReassembleRejectsAChunkOneBitTooLong) {
  // Lengthening chunk j by one bit keeps the lengths consistent only when
  // j is the chunk the next prefix bit would go to (j == len % k): that is
  // the honest shard of a one-bit-longer prefix.  Any other j is a splice.
  util::Rng rng(0x10B6);
  for (std::size_t k = 1; k <= 32; k += 3)
    for (std::size_t len = 0; len <= 100; len += 7) {
      const util::BitString x = random_bits(rng, len);
      for (std::size_t j = 0; j < k; ++j) {
        std::vector<util::BitString> chunks = detail::shard_chunks(x, k);
        const bool extra = rng.chance(0.5);
        util::BitWriter w;
        w.write_bits(chunks[j].bytes(), chunks[j].bit_size());
        w.write_bit(extra);
        chunks[j] = util::BitString::from_writer(std::move(w));
        const auto back = detail::reassemble_chunks(pointers(chunks));
        if (j != len % k) {
          EXPECT_FALSE(back.has_value()) << "k " << k << " len " << len;
          continue;
        }
        util::BitWriter longer;
        longer.write_bits(x.bytes(), x.bit_size());
        longer.write_bit(extra);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, util::BitString::from_writer(std::move(longer)));
      }
    }
}

// --- The stage-2 memo (FragmentSpreadScheme::memoize) ----------------------

const std::optional<local::Certificate>& memo_of(
    const std::vector<std::unique_ptr<ParsedCert>>& parsed,
    graph::NodeIndex v) {
  return static_cast<const FragmentParsed&>(*parsed[v]).base;
}

/// `lab` with the residue-`residue` chunk of every node in [begin, end)
/// flipped at bit 0 (same length, another class); the flipped nodes are
/// appended to `touched`.
core::Labeling flip_residue_chunks(const core::Labeling& lab,
                                   std::uint64_t residue,
                                   graph::NodeIndex begin,
                                   graph::NodeIndex end,
                                   std::vector<graph::NodeIndex>& touched) {
  core::Labeling out = lab;
  for (graph::NodeIndex v = begin; v < end; ++v) {
    auto wire = detail::parse_fragment_wire(out.certs[v]);
    EXPECT_TRUE(wire.has_value());
    if (!wire || wire->residue != residue || wire->chunk.bit_size() == 0)
      continue;
    std::vector<std::uint8_t> bytes = wire->chunk.bytes();
    bytes[0] ^= 1u;
    wire->chunk = util::BitString(std::move(bytes), wire->chunk.bit_size());
    out.certs[v] = detail::encode_fragment_wire(*wire);
    touched.push_back(v);
  }
  return out;
}

TEST(FragmentSpread, MemoHoldsEveryHonestBaseCertificate) {
  const auto check = [](const core::Scheme& base,
                        const local::Configuration& cfg, unsigned t) {
    SCOPED_TRACE(::testing::Message()
                 << base.name() << " t " << t << " n " << cfg.n());
    const FragmentSpreadScheme spread(base, t);
    const core::Labeling base_lab = base.mark(cfg);
    const auto parsed = stage_two(spread, cfg, spread.mark(cfg)).parsed;
    for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
      const std::optional<local::Certificate>& memo = memo_of(parsed, v);
      ASSERT_TRUE(memo.has_value()) << "node " << v;
      EXPECT_EQ(*memo, base_lab.certs[v]) << "node " << v;
    }
  };
  const schemes::StpLanguage stp_language;
  const schemes::StpScheme stp(stp_language);
  const schemes::MstLanguage mst_language;
  const schemes::MstScheme mst(mst_language);
  for (const unsigned t : {2u, 4u, 8u}) {
    util::Rng rng(331);
    for (auto& g : pls::testing::unweighted_family(337))
      check(stp, stp_language.sample_legal(g, rng), t);
    for (auto& g : pls::testing::weighted_family(347))
      check(mst, mst_language.sample_legal(g, rng), t);
  }
}

// verify_ball is a function of the certificates in its ball: with every
// group's memo swapped for one whose bases spell another prefix (each
// base's first bit flipped) and every link class kept, it still gives each
// center the reference engine's verdict.  verify_memoized, the memo's one
// reader, sees the forgery somewhere, so a verify_ball that read it would
// too.
TEST(FragmentSpread, VerifyBallReadsNoMemo) {
  const auto check = [](const core::Scheme& base,
                        const local::Configuration& cfg, unsigned t) {
    SCOPED_TRACE(::testing::Message()
                 << base.name() << " t " << t << " n " << cfg.n());
    const FragmentSpreadScheme spread(base, t);
    const core::Labeling lab = spread.mark(cfg);
    const auto parsed = stage_two(spread, cfg, lab).parsed;

    // One forged memo per group, its bases byte-aligned as memoize lays
    // them out.
    std::map<const RegionMemo*, std::vector<graph::NodeIndex>> members;
    for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
      const auto& p = static_cast<const FragmentParsed&>(*parsed[v]);
      if (p.memo != nullptr) members[p.memo.get()].push_back(v);
    }
    for (const auto& [memo, nodes] : members) {
      util::BitWriter bases;
      std::vector<std::size_t> at;
      for (const graph::NodeIndex v : nodes) {
        const auto& p = static_cast<const FragmentParsed&>(*parsed[v]);
        EXPECT_GT(p.base->bit_size(), p.wire.suffix.bit_size());
        at.push_back(bases.bit_size() / 8);
        bases.write_bits(p.base->data(), p.base->bit_size());
        bases.write_uint(0, static_cast<unsigned>(
                                (8 - bases.bit_size() % 8) % 8));
      }
      std::vector<std::uint8_t> arena = bases.take_bytes();
      for (const std::size_t byte : at) arena[byte] ^= 1u;  // a prefix bit
      auto forged =
          std::make_shared<const RegionMemo>(RegionMemo{std::move(arena)});
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        auto& p = static_cast<FragmentParsed&>(*parsed[nodes[i]]);
        const std::size_t bits = p.base->bit_size();
        p.base.reset();
        p.memo = forged;
        p.base = util::BitString::aliasing(forged->bases.data() + at[i], bits);
      }
    }

    const core::Verdict oracle = run_verifier_t_baseline(spread, cfg, lab, t);
    BallBuilder builder;
    bool forgery_seen = false;
    for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
      const BallView& ball =
          builder.build(cfg, lab, v, t, spread.visibility());
      const RadiusContext ctx(ball, cfg.graph().id(v), cfg.state(v),
                              lab.certs[v], spread.visibility(), cfg.n(),
                              parsed);
      EXPECT_EQ(spread.verify_ball(ctx), oracle.accept()[v]) << "node " << v;
      forgery_seen |=
          spread.verify_memoized(cfg, v, parsed) != oracle.accept()[v];
    }
    return forgery_seen;
  };
  const schemes::StpLanguage stp_language;
  const schemes::StpScheme stp(stp_language);
  const schemes::MstLanguage mst_language;
  const schemes::MstScheme mst(mst_language);
  for (const unsigned t : {2u, 4u, 8u}) {
    util::Rng rng(353);
    bool stp_seen = false;
    for (auto& g : pls::testing::unweighted_family(359))
      stp_seen |= check(stp, stp_language.sample_legal(g, rng), t);
    EXPECT_TRUE(stp_seen) << "t " << t;
    bool mst_seen = false;
    for (auto& g : pls::testing::weighted_family(367))
      mst_seen |= check(mst, mst_language.sample_legal(g, rng), t);
    EXPECT_TRUE(mst_seen) << "t " << t;
  }
}

TEST(FragmentSpread, MemoTakesTheMajorityClassWhileBallsKeepTheirOwn) {
  // One region (path(24) is connected, so stp leaves it unnamed), k = 2.
  // Four of the twelve residue-0 chunks, at nodes 16..22, carry a second
  // class: the vote memoizes the honest class, and every node — flipped
  // ones too — gets the honest base certificate.  The root's ball (node
  // 23) holds only the second class at residue 0, so its own reassembly
  // spells a prefix naming another root and it must reject, while the
  // lower half's balls hold only the honest classes and accept.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  const local::Configuration cfg = path_rooted_at_end(24);
  std::vector<graph::NodeIndex> touched;
  const core::Labeling split =
      flip_residue_chunks(spread.mark(cfg), 0, 16, 24, touched);
  ASSERT_EQ(touched.size(), 4u);

  const core::Labeling base_lab = base.mark(cfg);
  const auto parsed = stage_two(spread, cfg, split).parsed;
  for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
    const std::optional<local::Certificate>& memo = memo_of(parsed, v);
    ASSERT_TRUE(memo.has_value()) << "node " << v;
    EXPECT_EQ(*memo, base_lab.certs[v]) << "node " << v;
  }

  const core::Verdict oracle = run_verifier_t_baseline(spread, cfg, split, 2);
  EXPECT_FALSE(oracle.accept()[23]);
  EXPECT_TRUE(oracle.accept()[0]);
  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    BatchVerifier verifier(spread, cfg, 2,
                           pls::testing::split_sweep_options(threads));
    EXPECT_EQ(verifier.run_one(split).accept(), oracle.accept())
        << "threads " << threads;
  }
}

TEST(FragmentSpread, MemoWaitsForTheBallsCoverageCheck) {
  // k = 3 on path(24).  Nodes 0..20 claim residue 0 with the honest
  // residue-0 chunk; nodes 21..23 keep their honest residues 0, 1, 2.  Every
  // residue carries one class, so the group is memoized, yet a ball without
  // residues 1 and 2 must still reject: its uncovered members are
  // witnesses, so the memo never stands in for its coverage check.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  const local::Configuration cfg = path_rooted_at_end(24);
  core::Labeling flat = spread.mark(cfg);
  const auto residue0 = detail::parse_fragment_wire(flat.certs[0]);
  ASSERT_TRUE(residue0.has_value());
  ASSERT_EQ(residue0->k, 3u);
  ASSERT_EQ(residue0->residue, 0u);
  for (graph::NodeIndex v = 1; v <= 20; ++v) {
    auto wire = detail::parse_fragment_wire(flat.certs[v]);
    ASSERT_TRUE(wire.has_value());
    wire->residue = 0;
    wire->chunk = residue0->chunk;
    flat.certs[v] = detail::encode_fragment_wire(*wire);
  }
  EXPECT_TRUE(memo_of(stage_two(spread, cfg, flat).parsed, 0).has_value());

  const core::Verdict oracle = run_verifier_t_baseline(spread, cfg, flat, 4);
  EXPECT_FALSE(oracle.accept()[0]);
  EXPECT_TRUE(oracle.accept()[23]);
  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    BatchVerifier verifier(spread, cfg, 4,
                           pls::testing::split_sweep_options(threads));
    EXPECT_EQ(verifier.run_one(flat).accept(), oracle.accept())
        << "threads " << threads;
  }
}

TEST(FragmentSpread, DeltaRecolouringAResidueMatchesFullRuns) {
  // A full run memoizes the honest region; a delta then gives the upper
  // half's residue-0 chunks a second class, and a second delta flips the
  // lower half too (one class again, another prefix).  The resident memo
  // still describes the honest labeling, not these; each re-sweep runs
  // verify_ball, which reassembles from its own ball, and must equal a
  // from-scratch run.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  const local::Configuration cfg = path_rooted_at_end(24);
  const core::Labeling honest = spread.mark(cfg);
  LabelingDelta broken_delta;
  const core::Labeling broken =
      flip_residue_chunks(honest, 0, 12, 24, broken_delta.touched);
  LabelingDelta flipped_delta;
  const core::Labeling flipped =
      flip_residue_chunks(broken, 0, 0, 12, flipped_delta.touched);

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const auto full = [&](const core::Labeling& lab) {
      BatchVerifier fresh(spread, cfg, 2,
                          pls::testing::split_sweep_options(threads));
      const core::Verdict verdict = fresh.run_one(lab);
      EXPECT_EQ(verdict.accept(),
                run_verifier_t_baseline(spread, cfg, lab, 2).accept());
      return verdict.accept();
    };
    BatchVerifier verifier(spread, cfg, 2,
                           pls::testing::split_sweep_options(threads));
    EXPECT_TRUE(verifier.run_one(honest).all_accept());
    const core::Verdict after_break = verifier.run_delta(broken, broken_delta);
    EXPECT_FALSE(after_break.all_accept());
    EXPECT_EQ(after_break.accept(), full(broken));
    EXPECT_EQ(verifier.run_delta(flipped, flipped_delta).accept(),
              full(flipped));
    // The next full run memoizes again.
    EXPECT_EQ(verifier.run_one(flipped).accept(), full(flipped));
    EXPECT_TRUE(verifier.run_one(honest).all_accept());
  }
}

TEST(FragmentSpread, DeltaAfterALinkReseedMatchesFullRuns) {
  // Class ids are valid only within one link epoch.  path(24), k = 2: the
  // full run links the honest residue-0 chunk p0 as class 0 (node 0) and
  // memoizes classes {0, 1}.  A delta flips every residue-0 chunk to q (the
  // root now rejects); deltas then give node 22 novel chunks until the link
  // table re-seeds, which renumbers q as class 0 (node 0 again); a last delta
  // puts q back at node 22, next to the root.  The root's ball now shows
  // classes {0, 1} — the full run's memo numbers for other chunks — while
  // the root (node 23) still holds the full run's memo, whose base spells
  // the honest prefix.  A re-sweep that trusted that memo by class number
  // would accept; it must reject, as a from-scratch run does.
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  const local::Configuration cfg = path_rooted_at_end(24);
  const core::Labeling honest = spread.mark(cfg);
  LabelingDelta flip;
  const core::Labeling flipped =
      flip_residue_chunks(honest, 0, 0, 24, flip.touched);
  auto wire22 = detail::parse_fragment_wire(flipped.certs[22]);
  ASSERT_TRUE(wire22.has_value());
  ASSERT_EQ(wire22->residue, 0u);
  const core::Verdict expected =
      run_verifier_t_baseline(spread, cfg, flipped, 2);
  ASSERT_FALSE(expected.accept()[23]);

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    BatchVerifier verifier(spread, cfg, 2,
                           pls::testing::split_sweep_options(threads));
    EXPECT_TRUE(verifier.run_one(honest).all_accept());
    EXPECT_EQ(verifier.run_delta(flipped, flip).accept(), expected.accept());
    LabelingDelta at22;
    at22.touched = {22};
    core::Labeling novel = flipped;
    for (unsigned i = 0; verifier.delta_stats().link_reseeds == 0; ++i) {
      ASSERT_LT(i, 1000u) << "the link table never re-seeded";
      detail::FragmentWire w = *wire22;
      util::BitWriter chunk;  // 32 bits: never an honest chunk's length
      chunk.write_uint(i, 32);
      w.chunk = util::BitString::from_writer(std::move(chunk));
      novel.certs[22] = detail::encode_fragment_wire(w);
      verifier.run_delta(novel, at22);
    }
    EXPECT_EQ(verifier.run_delta(flipped, at22).accept(), expected.accept());
  }
}

}  // namespace
}  // namespace pls::radius
