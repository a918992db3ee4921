// The delta path's own contract tests (the differential fuzz in
// test_fuzz_differential.cpp replays whole mutation trails through it;
// these pin the mechanism): the dirty set equals brute-force distance, an
// empty mutation set does literally no stage work, stable interning survives
// a mutate-back and a full link's epoch reset, parses without a link key
// relink exactly, and run_delta is bit-identical to a from-scratch run at
// every thread count.
#include "radius/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/bfs_core.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "radius/parse_link.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"
#include "util/assert.hpp"

namespace pls::radius {
namespace {

using core::Labeling;
using core::Verdict;
using pls::testing::share;

Labeling random_labeling(std::size_t n, util::Rng& rng) {
  Labeling lab;
  for (std::size_t v = 0; v < n; ++v)
    lab.certs.push_back(local::random_state(rng.below(96), rng));
  return lab;
}

/// Brute-force dirty set: every center within hop distance r of a touched
/// node, via per-source BFS over the whole graph.
std::vector<graph::NodeIndex> brute_dirty(
    const graph::Graph& g, unsigned r,
    std::span<const graph::NodeIndex> touched) {
  std::vector<bool> dirty(g.n(), false);
  for (const graph::NodeIndex v : touched) {
    const graph::BfsResult bfs = graph::bfs(g, v);
    for (graph::NodeIndex u = 0; u < g.n(); ++u)
      if (bfs.dist[u] != graph::BfsResult::kUnreachable && bfs.dist[u] <= r)
        dirty[u] = true;
  }
  std::vector<graph::NodeIndex> out;
  for (graph::NodeIndex u = 0; u < g.n(); ++u)
    if (dirty[u]) out.push_back(u);
  return out;
}

TEST(LabelingDelta, DiffFindsExactlyTheMutatedNodes) {
  util::Rng rng(61001);
  Labeling prev = random_labeling(12, rng);
  Labeling next = prev;
  next.certs[3] = local::random_state(40, rng);
  next.certs[7] = local::Certificate{};
  // A same-value rewrite is NOT a difference.
  next.certs[5] = prev.certs[5];
  const LabelingDelta delta = LabelingDelta::diff(prev, next);
  EXPECT_EQ(delta.touched, (std::vector<graph::NodeIndex>{3, 7}));
  EXPECT_TRUE(LabelingDelta::diff(prev, prev).touched.empty());

  Labeling shorter = prev;
  shorter.certs.pop_back();
  EXPECT_THROW(LabelingDelta::diff(prev, shorter), std::logic_error);
}

// run_delta's dirty set is the sorted multi-source BFS from the touched
// nodes, cut off at the decoding radius; per-source BFS over the whole graph
// must find the same centers, and a delta must re-sweep exactly that many.
TEST(LabelingDelta, DirtySetMatchesBruteForceDistance) {
  util::Rng rng(61002);
  const std::vector<std::shared_ptr<const graph::Graph>> graphs = {
      share(graph::path(17)), share(graph::cycle(12)), share(graph::star(9)),
      share(graph::grid(4, 6)), share(graph::random_connected(40, 25, rng))};
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  graph::VisitEpochSet seen;
  std::vector<graph::NodeIndex> dirty;
  for (const auto& g : graphs) {
    const local::Configuration cfg = language.sample_legal(g, rng);
    for (const unsigned r : {1u, 2u, 4u}) {
      const FragmentSpreadScheme spread(base, r);
      const Labeling honest = spread.mark(cfg);
      BatchVerifier verifier(spread, cfg, r);
      verifier.run_one(honest);
      for (int trial = 0; trial < 4; ++trial) {
        LabelingDelta delta;
        const std::size_t k = 1 + rng.below(3);
        for (std::size_t i = 0; i < k; ++i)
          delta.touched.push_back(
              static_cast<graph::NodeIndex>(rng.below(g->n())));
        // Duplicates are allowed and must not duplicate dirty centers.
        delta.touched.push_back(delta.touched.front());
        graph::layered_bfs(*g, delta.touched, r, seen, dirty,
                           graph::ReachVisitor{});
        std::sort(dirty.begin(), dirty.end());
        const std::vector<graph::NodeIndex> expected =
            brute_dirty(*g, r, delta.touched);
        EXPECT_EQ(dirty, expected) << g->describe() << " r=" << r;
        const std::uint64_t before = verifier.delta_stats().centers_reswept;
        EXPECT_TRUE(verifier.run_delta(honest, delta).all_accept());
        EXPECT_EQ(verifier.delta_stats().centers_reswept - before,
                  expected.size())
            << g->describe() << " r=" << r;
      }
    }
  }
}

TEST(BatchVerifierDelta, RequiresAResidentRun) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(61003);
  auto g = share(graph::random_connected(14, 8, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  BatchVerifier verifier(spread, cfg, 2);
  EXPECT_FALSE(verifier.has_resident());
  EXPECT_THROW(verifier.run_delta(honest, LabelingDelta{}), std::logic_error);
  verifier.run_one(honest);
  EXPECT_TRUE(verifier.has_resident());

  LabelingDelta out_of_range;
  out_of_range.touched = {static_cast<graph::NodeIndex>(cfg.n())};
  EXPECT_THROW(verifier.run_delta(honest, out_of_range), std::logic_error);
}

TEST(BatchVerifierDelta, EmptyDeltaDoesNoWorkAndSplicesTheVerdict) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(61004);
  auto g = share(graph::random_connected(20, 12, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);

  Labeling tampered = spread.mark(cfg);
  tampered.certs[5] = local::random_state(33, rng);

  BatchVerifier verifier(spread, cfg, 4);
  const Verdict full = verifier.run_one(tampered);
  const DeltaStats before = verifier.delta_stats();
  EXPECT_EQ(before.delta_runs, 0u);

  const Verdict spliced = verifier.run_delta(tampered, LabelingDelta{});
  EXPECT_EQ(spliced.accept(), full.accept());
  // Rejection-count semantics: the spliced verdict counts its own bits.
  EXPECT_EQ(spliced.rejections(), full.rejections());

  const DeltaStats after = verifier.delta_stats();
  EXPECT_EQ(after.delta_runs, 1u);
  EXPECT_EQ(after.empty_runs, 1u);
  EXPECT_EQ(after.certs_reparsed, 0u);
  EXPECT_EQ(after.links_incremental, 0u);
  EXPECT_EQ(after.centers_reswept, 0u);
  EXPECT_EQ(after.verdicts_carried, 0u);
}

/// run_delta over `stream` at threads {1, 2, hw}, every step against the
/// cache-less reference engine.  Returns the fewest
/// link re-seeds any of the three verifiers made.
std::uint64_t expect_delta_matches_baseline(
    const core::Scheme& scheme, const local::Configuration& cfg, unsigned t,
    const Labeling& start, const std::vector<Labeling>& stream,
    const std::vector<LabelingDelta>& deltas) {
  PLS_REQUIRE(stream.size() == deltas.size());
  std::vector<Verdict> expect;
  for (const Labeling& lab : stream)
    expect.push_back(run_verifier_t_baseline(scheme, cfg, lab, t));
  std::uint64_t reseeds = std::numeric_limits<std::uint64_t>::max();
  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    BatchVerifier verifier(scheme, cfg, t,
                           pls::testing::split_sweep_options(threads));
    EXPECT_EQ(verifier.run_one(start).accept(),
              run_verifier_t_baseline(scheme, cfg, start, t).accept());
    for (std::size_t i = 0; i < stream.size(); ++i)
      EXPECT_EQ(verifier.run_delta(stream[i], deltas[i]).accept(),
                expect[i].accept())
          << scheme.name() << " step " << i << " threads " << threads;
    reseeds = std::min(reseeds, verifier.delta_stats().link_reseeds);
  }
  return reseeds;
}

TEST(BatchVerifierDelta, SingleMutationsMatchFullRunsIncludingMutateBack) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::Rng rng(61005);
  auto g = share(graph::random_connected(26, 16, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);

  for (const unsigned t : {2u, 4u}) {
    const FragmentSpreadScheme spread(base, t);
    const Labeling honest = spread.mark(cfg);

    // Landmark of the (single) component: the minimum-id node — mutating it
    // exercises the residue-0 binding and the chunk the landmark carries.
    graph::NodeIndex landmark = 0;
    for (graph::NodeIndex v = 1; v < g->n(); ++v)
      if (g->id(v) < g->id(landmark)) landmark = v;

    std::vector<Labeling> stream;
    std::vector<LabelingDelta> deltas;
    const auto push = [&](Labeling lab, std::vector<graph::NodeIndex> touched) {
      stream.push_back(std::move(lab));
      deltas.push_back(LabelingDelta{std::move(touched)});
    };

    Labeling cur = honest;
    cur.certs[9] = local::random_state(41, rng);
    push(cur, {9});
    // Mutate BACK to the honest value: the re-interned chunk must get its
    // old class id back (stable interning), and the verdict must return to
    // all-accept.
    cur.certs[9] = honest.certs[9];
    push(cur, {9});
    // Touch the landmark.
    cur.certs[landmark] = local::random_state(17, rng);
    push(cur, {landmark});
    cur.certs[landmark] = honest.certs[landmark];
    push(cur, {landmark});
    // Copy another node's certificate (equal-payload interning across
    // nodes), declared with a duplicate and an untouched extra node — an
    // over-approximated delta must behave identically.
    cur.certs[3] = cur.certs[12];
    push(cur, {3, 3, 5});

    expect_delta_matches_baseline(spread, cfg, t, honest, stream, deltas);
  }
}

TEST(BatchVerifierDelta, DeltaAfterBatchBuildsOnTheLastLabeling) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(61006);
  auto g = share(graph::grid(4, 6));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  Labeling second = honest;
  second.certs[2] = local::random_state(12, rng);
  Labeling third = second;
  third.certs[11] = local::random_state(30, rng);
  BatchVerifier verifier(spread, cfg, 2);
  for (const Labeling& lab : {honest, second, third}) verifier.run_one(lab);
  // The resident state is the last labeling verified: `third`.
  Labeling next = third;
  next.certs[11] = honest.certs[11];
  LabelingDelta delta;
  delta.touched = {11};
  const Verdict got = verifier.run_delta(next, delta);
  EXPECT_EQ(got.accept(),
            run_verifier_t_baseline(spread, cfg, next, 2).accept());
  // And a delta computed by diffing the two labelings.
  Labeling final = next;
  final.certs[2] = honest.certs[2];
  const Verdict got2 =
      verifier.run_delta(final, LabelingDelta::diff(next, final));
  EXPECT_EQ(got2.accept(),
            run_verifier_t_baseline(spread, cfg, final, 2).accept());
  EXPECT_TRUE(got2.all_accept());  // back to the honest marking
}

TEST(BatchVerifierDelta, StatsAccountReparsesAndDirtySweeps) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(61007);
  auto g = share(graph::path(15));  // balls are small and easy to count
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  BatchVerifier verifier(spread, cfg, 2);
  verifier.run_one(honest);

  Labeling next = honest;
  next.certs[7] = local::random_state(21, rng);
  LabelingDelta delta;
  delta.touched = {7};
  verifier.run_delta(next, delta);

  const DeltaStats stats = verifier.delta_stats();
  EXPECT_EQ(stats.delta_runs, 1u);
  EXPECT_EQ(stats.certs_reparsed, 1u);
  EXPECT_EQ(stats.links_incremental, 1u);
  // On a path, B(7, 2) = {5, 6, 7, 8, 9}.
  EXPECT_EQ(stats.centers_reswept, 5u);
  EXPECT_EQ(stats.verdicts_carried, cfg.n() - 5u);
}

// Plain 1-round schemes go through the delta path too: their decoders read
// only layer 1, so the dirty radius is 1 whatever t the verifier is pinned
// at — and no geometry atlas traffic happens at all.
TEST(BatchVerifierDelta, PlainSchemesUseRadiusOneDirtySets) {
  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  util::Rng rng(61008);
  auto g = share(graph::star(9));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = stp.mark(cfg);

  BatchVerifier verifier(stp, cfg, 3);
  verifier.run_one(honest);
  Labeling next = honest;
  next.certs[4] = local::random_state(9, rng);  // a leaf of the star
  LabelingDelta delta;
  delta.touched = {4};
  const Verdict got = verifier.run_delta(next, delta);
  EXPECT_EQ(got.accept(),
            run_verifier_t_baseline(stp, cfg, next, 3).accept());
  // Dirty = the leaf and the hub, not the whole star.
  EXPECT_EQ(verifier.delta_stats().centers_reswept, 2u);
  EXPECT_EQ(verifier.atlas().stats().misses, 0u);
}

/// A ball scheme whose parses have no link key: accept iff every ball
/// member's certificate length is congruent to the center's mod 4
/// (arbitrary, total, and sensitive to any length mutation).  Its delta runs
/// relink through the same LinkTable as the spread scheme's — interning
/// nothing — and must still be exact.
class KeylessScheme final : public BallScheme {
 public:
  explicit KeylessScheme(const core::Language& language)
      : language_(language) {}

  std::string_view name() const noexcept override { return "keyless"; }
  const core::Language& language() const noexcept override {
    return language_;
  }
  unsigned radius() const noexcept override { return 2; }

  core::Labeling mark(const local::Configuration& cfg) const override {
    core::Labeling lab;
    lab.certs.assign(cfg.n(), local::Certificate{});
    return lab;
  }

  std::size_t proof_size_bound(std::size_t, std::size_t) const override {
    return 0;
  }

  std::unique_ptr<ParsedCert> parse_cert(
      const local::Certificate& cert) const override {
    auto parsed = std::make_unique<Parsed>();
    parsed->len = cert.bit_size();
    return parsed;
  }

  bool verify_ball(const RadiusContext& ctx) const override {
    const auto len_of = [&](std::size_t i) {
      const BallMember& m = ctx.ball().members()[i];
      if (ctx.has_parse_cache())
        return static_cast<const Parsed*>(ctx.parsed(m.node))->len;
      return m.cert->bit_size();
    };
    const std::size_t own = len_of(0) % 4;
    for (std::size_t i = 1; i < ctx.ball().size(); ++i)
      if (len_of(i) % 4 != own) return false;
    return true;
  }

 private:
  struct Parsed final : ParsedCert {
    std::size_t len = 0;
  };
  const core::Language& language_;
};

TEST(BatchVerifierDelta, KeylessParsesRelinkExactly) {
  const schemes::StpLanguage language;
  const KeylessScheme scheme(language);
  util::Rng rng(61009);
  auto g = share(graph::random_connected(18, 10, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);

  Labeling cur = random_labeling(cfg.n(), rng);
  BatchVerifier verifier(scheme, cfg, 2);
  verifier.run_one(cur);
  for (int step = 0; step < 6; ++step) {
    const auto v = static_cast<graph::NodeIndex>(rng.below(cfg.n()));
    cur.certs[v] = local::random_state(rng.below(64), rng);
    LabelingDelta delta;
    delta.touched = {v};
    const Verdict got = verifier.run_delta(cur, delta);
    EXPECT_EQ(got.accept(),
              run_verifier_t_baseline(scheme, cfg, cur, 2).accept())
        << "step " << step;
  }
  EXPECT_EQ(verifier.delta_stats().links_incremental, 6u);
  EXPECT_EQ(verifier.delta_stats().link_reseeds, 0u);  // nothing interned
}

// The fragment spread's delta runs under region structure: mutations of
// region-interior, landmark, and region-id-bearing certificates all replay
// exactly (the fuzz harness covers this registry-wide; this is the directed
// version).  stp's spread is one unnamed group; the weighted MST's regions
// are named Borůvka fragments, and its stream re-seeds the link table, so
// its re-sweeps mix parses linked before and after a re-seed.
TEST(BatchVerifierDelta, FragmentSpreadDeltasMatchFullRuns) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(61010);
  auto g = share(graph::random_connected(24, 14, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  std::vector<Labeling> stream;
  std::vector<LabelingDelta> deltas;
  Labeling cur = honest;
  for (int step = 0; step < 8; ++step) {
    const auto v = static_cast<graph::NodeIndex>(rng.below(cfg.n()));
    cur.certs[v] = step % 3 == 2 ? honest.certs[v]
                                 : local::random_state(rng.below(80), rng);
    stream.push_back(cur);
    deltas.push_back(LabelingDelta{{v}});
  }
  expect_delta_matches_baseline(spread, cfg, 4, honest, stream, deltas);

  const schemes::MstLanguage mst_language;
  const schemes::MstScheme mst(mst_language);
  const FragmentSpreadScheme mst_spread(mst, 2);
  const local::Configuration mst_cfg = mst_language.sample_legal(
      pls::testing::weighted_family(61011).back(), rng);
  const std::size_t n = mst_cfg.n();
  const Labeling mst_honest = mst_spread.mark(mst_cfg);
  std::vector<detail::FragmentWire> wires;
  std::vector<std::uint64_t> regions;
  for (const local::Certificate& c : mst_honest.certs) {
    auto w = detail::parse_fragment_wire(c);
    ASSERT_TRUE(w.has_value());
    if (w->named) regions.push_back(w->region);
    wires.push_back(std::move(*w));
  }
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  ASSERT_GE(regions.size(), 2u);

  // Three nodes take turns: a well-formed certificate with a novel chunk
  // (same length where the chunk is long enough, so the ball still
  // reassembles), another region's id, or their honest certificate back.
  // The novel chunks outnumber the re-seed bound; the stream ends honest,
  // so the last re-sweeps accept.
  std::vector<graph::NodeIndex> hot;
  for (int i = 0; i < 3; ++i)
    hot.push_back(static_cast<graph::NodeIndex>(rng.below(n)));
  stream.clear();
  deltas.clear();
  cur = mst_honest;
  const std::uint64_t novel_steps = detail::kReseedClassMultiple * n + 1;
  ASSERT_LT(novel_steps, 256u);  // each novel chunk's mark fits one byte
  for (std::uint64_t step = 0; step < 2 * novel_steps; ++step) {
    const graph::NodeIndex v = hot[step % hot.size()];
    detail::FragmentWire w = wires[v];
    if (step % 2 == 0) {
      const std::uint64_t mark = 1 + step / 2;
      if (w.chunk.bit_size() >= 8) {
        std::vector<std::uint8_t> bytes = w.chunk.bytes();
        bytes[0] ^= static_cast<std::uint8_t>(mark);
        w.chunk = util::BitString(std::move(bytes), w.chunk.bit_size());
      } else {
        w.chunk = util::BitString::of_uint(mark, 32);
      }
      cur.certs[v] = detail::encode_fragment_wire(w);
    } else if (step % 6 == 1 && w.named) {
      w.region = regions[step % regions.size()];
      cur.certs[v] = detail::encode_fragment_wire(w);
    } else {
      cur.certs[v] = mst_honest.certs[v];
    }
    stream.push_back(cur);
    deltas.push_back(LabelingDelta{{v}});
  }
  for (const graph::NodeIndex v : hot) {
    cur.certs[v] = mst_honest.certs[v];
    stream.push_back(cur);
    deltas.push_back(LabelingDelta{{v}});
  }
  EXPECT_GE(expect_delta_matches_baseline(mst_spread, mst_cfg, 2, mst_honest,
                                          stream, deltas),
            1u);
}

// ---- Bounded link table ----------------------------------------------------
//
// The intern table is append-only between full links, so a mutation stream
// that keeps inventing payloads is the worst case: without the re-seed it
// grows one entry per step forever.  These tests drive exactly that stream.

/// Minimal keyed parse: the link key alone, without the fragment wire a
/// FragmentParsed carries around it.
struct FakeParsed final : ParsedCert {
  explicit FakeParsed(util::BitString c) : chunk(std::move(c)) {}
  const util::BitString* link_key() const noexcept override { return &chunk; }
  util::BitString chunk;
};

std::vector<std::unique_ptr<ParsedCert>> fake_parses(
    const std::vector<std::uint64_t>& payloads) {
  std::vector<std::unique_ptr<ParsedCert>> parsed;
  for (const std::uint64_t x : payloads)
    parsed.push_back(
        std::make_unique<FakeParsed>(util::BitString::of_uint(x, 32)));
  return parsed;
}

void set_payload(const std::unique_ptr<ParsedCert>& p, std::uint64_t x) {
  static_cast<FakeParsed*>(p.get())->chunk = util::BitString::of_uint(x, 32);
}

/// The contract every carried-forward comparison rests on: equal payloads
/// share a class, distinct payloads never do.
void expect_classes_coherent(
    const std::vector<std::unique_ptr<ParsedCert>>& parsed) {
  for (std::size_t a = 0; a < parsed.size(); ++a) {
    ASSERT_NE(parsed[a]->link_class, ParsedCert::kUnlinked) << a;
    for (std::size_t b = a + 1; b < parsed.size(); ++b)
      EXPECT_EQ(*parsed[a]->link_key() == *parsed[b]->link_key(),
                parsed[a]->link_class == parsed[b]->link_class)
          << a << " vs " << b;
  }
}

TEST(LinkTable, RelinkReseedsKeepTheTableBounded) {
  constexpr std::size_t kN = 64;
  constexpr int kSteps = 10000;
  std::vector<std::uint64_t> payloads(kN);
  for (std::size_t v = 0; v < kN; ++v) payloads[v] = v;
  const std::vector<std::unique_ptr<ParsedCert>> parsed = fake_parses(payloads);
  detail::LinkTable table;
  table.link(parsed);
  ASSERT_EQ(table.size(), kN);

  std::size_t peak = table.size();
  std::uint64_t fresh = kN;  // every step's payload is novel
  for (int step = 0; step < kSteps; ++step) {
    const auto v = static_cast<graph::NodeIndex>(step % kN);
    set_payload(parsed[v], fresh++);
    const graph::NodeIndex touched[] = {v};
    table.relink(parsed, touched);
    peak = std::max(peak, table.size());
  }
  // Bounded: one relink can overshoot the bound by its own touched set (one
  // entry here) before the re-seed snaps the table back to the live set.
  EXPECT_LE(peak, detail::kReseedClassMultiple * kN + 1);
  // And the stream genuinely exercised the bound, roughly every
  // (kReseedClassMultiple - 1) * kN novel payloads.
  EXPECT_GE(table.reseeds(), static_cast<std::uint64_t>(
                kSteps / ((detail::kReseedClassMultiple) * kN)));

  // Id coherence after many epochs.
  expect_classes_coherent(parsed);
}

TEST(LinkTable, FullLinkResetsTheEpoch) {
  // Six parses over four distinct payloads; first encounters in node order
  // are 10, 20, 30, 40.
  const std::vector<std::unique_ptr<ParsedCert>> parsed =
      fake_parses({10, 20, 10, 30, 40, 20});
  detail::LinkTable table;
  table.link(parsed);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(parsed[5]->link_class, parsed[1]->link_class);

  // A relink stream on node 5 grows the append-only table past the live set.
  for (std::uint64_t step = 0; step < 5; ++step) {
    set_payload(parsed[5], 1000 + step);
    const graph::NodeIndex touched[] = {5};
    table.relink(parsed, touched);
  }
  ASSERT_EQ(table.size(), 4u + 5u);
  ASSERT_EQ(table.reseeds(), 0u);  // still under the re-seed bound

  // The full link drops every dead id: the table holds exactly the distinct
  // live payloads {10, 20, 30, 40, 1004}, ids dense from 0 in
  // first-encounter (node) order.
  table.link(parsed);
  EXPECT_EQ(table.size(), 5u);
  const std::vector<std::uint32_t> expected = {0, 1, 0, 2, 3, 4};
  for (std::size_t v = 0; v < parsed.size(); ++v)
    EXPECT_EQ(parsed[v]->link_class, expected[v]) << v;

  // Node 5 mutated back to its pre-reset payload gets the class of its
  // equal (node 1), in the new epoch's ids.
  set_payload(parsed[5], 20);
  const graph::NodeIndex touched[] = {5};
  table.relink(parsed, touched);
  EXPECT_EQ(parsed[5]->link_class, parsed[1]->link_class);
  EXPECT_EQ(table.size(), 5u);
  expect_classes_coherent(parsed);
}

// End to end: a >=10k-step single-certificate mutation stream through
// run_delta, every verdict checked against a from-scratch run, with the
// re-seed observable through DeltaStats and the table bounded throughout
// (if it were not, the peak-assertion above would fail first — here the
// gate is that re-seeding never perturbs a verdict).
TEST(BatchVerifierDelta, TenThousandStepStreamStaysExactAndReseeds) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(61011);
  auto g = share(graph::random_connected(24, 14, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  BatchVerifier delta_verifier(spread, cfg, 2);
  BatchVerifier full_verifier(spread, cfg, 2);
  delta_verifier.run_one(honest);

  Labeling cur = honest;
  int divergences = 0;
  for (int step = 0; step < 10000; ++step) {
    const auto v = static_cast<graph::NodeIndex>(rng.below(cfg.n()));
    // Mostly novel payloads (the table-growing worst case), with periodic
    // mutate-backs so stable interning across re-seed epochs is exercised.
    cur.certs[v] = step % 7 == 6 ? honest.certs[v]
                                 : local::random_state(24 + rng.below(40), rng);
    LabelingDelta delta;
    delta.touched = {v};
    const Verdict got = delta_verifier.run_delta(cur, delta);
    const Verdict expect = full_verifier.run_one(cur);
    if (got.accept() != expect.accept()) {
      ++divergences;
      ASSERT_LT(divergences, 5) << "step " << step;  // fail loud, not 10k times
      ADD_FAILURE() << "verdict divergence at step " << step;
    }
  }
  const DeltaStats stats = delta_verifier.delta_stats();
  EXPECT_EQ(stats.delta_runs, 10000u);
  EXPECT_EQ(stats.links_incremental, 10000u);
  EXPECT_GT(stats.link_reseeds, 0u);  // the bound really triggered
}

}  // namespace
}  // namespace pls::radius
