#include "radius/splice.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "graph/algorithms.hpp"
#include "radius/spread_wire.hpp"
#include "util/assert.hpp"

namespace pls::radius {

namespace {

/// Region mask: the half of each component nearest a random seed node (by
/// BFS distance), so both regions are connected-ish and the seam is a
/// plausible frontier an adversary would pick.
std::vector<bool> near_region(const graph::Graph& g, util::Rng& rng) {
  const std::size_t n = g.n();
  std::vector<bool> near(n, false);
  if (n == 0) return near;
  const graph::Components comps = graph::connected_components(g);
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<std::uint32_t> max_dist(comps.count, 0);
  const auto seed = static_cast<graph::NodeIndex>(rng.below(n));
  for (std::size_t c = 0; c < comps.count; ++c) {
    const graph::NodeIndex root =
        comps.comp[seed] == c ? seed : [&] {
          for (graph::NodeIndex v = 0; v < n; ++v)
            if (comps.comp[v] == c) return v;
          return graph::kInvalidNode;
        }();
    const graph::BfsResult bfs = graph::bfs(g, root);
    for (graph::NodeIndex v = 0; v < n; ++v) {
      if (comps.comp[v] != c) continue;
      dist[v] = bfs.dist[v];
      max_dist[c] = std::max(max_dist[c], bfs.dist[v]);
    }
  }
  for (graph::NodeIndex v = 0; v < n; ++v)
    near[v] = dist[v] <= max_dist[comps.comp[v]] / 2;
  return near;
}

using detail::FragmentWire;

/// Parses every certificate of a (marker-produced) labeling; the marker's
/// output always parses, so this asserts rather than rejects.
std::vector<FragmentWire> parse_all(const core::Labeling& lab) {
  std::vector<FragmentWire> wires;
  wires.reserve(lab.size());
  for (const local::Certificate& c : lab.certs) {
    auto p = detail::parse_fragment_wire(c);
    PLS_ASSERT(p.has_value());
    wires.push_back(std::move(*p));
  }
  return wires;
}

core::Labeling encode_all(const std::vector<FragmentWire>& wires) {
  core::Labeling lab;
  lab.certs.reserve(wires.size());
  for (const FragmentWire& w : wires)
    lab.certs.push_back(detail::encode_fragment_wire(w));
  return lab;
}

/// Per-node key of the region an honest marking put the node in: the region
/// id when named, else the minimum id of the node's component — the id an
/// unnamed (whole-component) region would be named by, so no two regions
/// share a key.
std::vector<std::uint64_t> region_keys(const graph::Graph& g,
                                       const std::vector<FragmentWire>& wires) {
  const graph::Components comps = graph::connected_components(g);
  std::vector<graph::RawId> comp_min(comps.count, ~graph::RawId{0});
  for (graph::NodeIndex v = 0; v < g.n(); ++v)
    comp_min[comps.comp[v]] = std::min(comp_min[comps.comp[v]], g.id(v));
  std::vector<std::uint64_t> keys(g.n());
  for (graph::NodeIndex v = 0; v < g.n(); ++v)
    keys[v] = wires[v].named ? wires[v].region : comp_min[comps.comp[v]];
  return keys;
}

/// The representative chunk of every (region, residue) class of an honest
/// marking (all classes are inhabited: k_r <= ecc_r + 1 and BFS layers are
/// contiguous).
std::unordered_map<std::uint64_t, std::vector<util::BitString>>
chunks_by_region(const std::vector<FragmentWire>& wires,
                 const std::vector<std::uint64_t>& keys) {
  std::unordered_map<std::uint64_t, std::vector<util::BitString>> chunks;
  for (std::size_t v = 0; v < wires.size(); ++v) {
    auto& slots = chunks[keys[v]];
    if (slots.size() < wires[v].k) slots.resize(wires[v].k);
    slots[wires[v].residue] = wires[v].chunk;
  }
  return chunks;
}

/// Reassembles a region's prefix from its per-class chunks through the
/// verifier's own shared routine; the marker's chunks always interleave
/// consistently, so this asserts rather than rejects.
util::BitString reassemble(const std::vector<util::BitString>& chunks) {
  std::vector<const util::BitString*> ptrs;
  ptrs.reserve(chunks.size());
  for (const util::BitString& c : chunks) ptrs.push_back(&c);
  auto prefix = detail::reassemble_chunks(ptrs);
  PLS_ASSERT(prefix.has_value());
  return std::move(*prefix);
}

}  // namespace

std::vector<SpliceAttack> fragment_splice_attacks(
    const FragmentSpreadScheme& scheme, const local::Configuration& cfg,
    util::Rng& rng) {
  const graph::Graph& g = cfg.graph();
  const std::size_t n = g.n();
  std::vector<SpliceAttack> out;
  if (n == 0) return out;

  core::Labeling mark_a;
  core::Labeling mark_b;
  try {
    mark_a = scheme.mark(scheme.language().sample_legal(cfg.graph_ptr(), rng));
    mark_b = scheme.mark(scheme.language().sample_legal(cfg.graph_ptr(), rng));
  } catch (const std::logic_error&) {
    return out;  // language not constructible on this graph
  }

  const std::vector<bool> near = near_region(g, rng);
  const std::vector<FragmentWire> wires_a = parse_all(mark_a);
  const std::vector<FragmentWire> wires_b = parse_all(mark_b);
  const std::vector<std::uint64_t> keys = region_keys(g, wires_a);
  const auto chunks = chunks_by_region(wires_a, keys);

  // Two halves voting different reassembled prefixes: the near half carries
  // instance A's certificates verbatim, the far half instance B's.
  {
    core::Labeling lab;
    lab.certs.reserve(n);
    for (graph::NodeIndex v = 0; v < n; ++v)
      lab.certs.push_back(near[v] ? mark_a.certs[v] : mark_b.certs[v]);
    out.push_back({"fragment-region-prefix", std::move(lab)});
  }

  // Chunks and residues of A, residual suffixes of B: every reassembled
  // prefix is consistent but disagrees with the suffixes it is glued to.
  {
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v)
      wires[v].suffix = wires_b[v].suffix;
    out.push_back({"fragment-suffix-crossbreed", encode_all(wires)});
  }

  // Rotated residue assignment, on the far half and everywhere: residues
  // still change by at most one across every edge, but the chunk a node
  // carries belongs to the class it previously claimed — any ball that
  // reassembles across the rotation stitches prefix bits into the wrong
  // positions.
  {
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v)
      if (!near[v]) wires[v].residue = (wires[v].residue + 1) % wires[v].k;
    out.push_back({"residue-rotate-region", encode_all(wires)});
  }
  {
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v)
      wires[v].residue = (wires[v].residue + 1) % wires[v].k;
    out.push_back({"fragment-residue-rotate", encode_all(wires)});
  }

  // Chunk payloads of residue classes 0 and 1 swapped in every region: each
  // class stays internally consistent, but the reassembled prefix is a
  // transposition of the real one.
  if (std::any_of(wires_a.begin(), wires_a.end(),
                  [](const FragmentWire& w) { return w.k >= 2; })) {
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v)
      if (wires[v].k >= 2 && wires[v].residue < 2)
        wires[v].chunk = chunks.at(keys[v])[1 - wires[v].residue];
    out.push_back({"chunk-crosswire", encode_all(wires)});
  }

  // Region tags flipped across the seam: the near half keeps A's wires
  // unnamed, the far half carries B's wires under region 0 — below every
  // generated id (ids start at 1), so the landmark binding holds — and the
  // two halves never compare chunk classes or residues across the seam.
  {
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v) {
      if (near[v]) {
        wires[v].named = false;
      } else {
        wires[v] = wires_b[v];
        wires[v].named = true;
        wires[v].region = 0;
      }
    }
    out.push_back({"tag-flip", encode_all(wires)});
  }

  // Cross-region variants, whenever the honest marking names its regions
  // (an unnamed region is a whole component and borders no other).
  std::vector<std::uint64_t> regions;
  for (const FragmentWire& w : wires_a)
    if (w.named) regions.push_back(w.region);
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  if (regions.size() < 2) return out;

  // Every named region claims the cyclically-next region's name.  The
  // partition is untouched, but the region with the smallest name now
  // claims a name above its landmark's id — the landmark binding must catch
  // it.
  {
    std::unordered_map<std::uint64_t, std::uint64_t> next;
    for (std::size_t i = 0; i < regions.size(); ++i)
      next[regions[i]] = regions[(i + 1) % regions.size()];
    std::vector<FragmentWire> wires = wires_a;
    for (FragmentWire& w : wires)
      if (w.named) w.region = next.at(w.region);
    out.push_back({"region-id-rotate", encode_all(wires)});
  }

  // Two regions swap chunk payloads class-by-class: each stays internally
  // consistent while reassembling (a shard of) the other's prefix.  Prefer
  // an adjacent pair with equal factor — the hardest-to-detect crossing.
  {
    std::uint64_t r1 = regions[0];
    std::uint64_t r2 = regions[1];
    for (graph::EdgeIndex e = 0; e < g.m(); ++e) {
      const graph::Edge& ed = g.edge(e);
      if (keys[ed.u] != keys[ed.v] && wires_a[ed.u].k == wires_a[ed.v].k) {
        r1 = keys[ed.u];
        r2 = keys[ed.v];
        break;
      }
    }
    const auto& c1 = chunks.at(r1);
    const auto& c2 = chunks.at(r2);
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v) {
      FragmentWire& w = wires[v];
      if (keys[v] == r1 && w.residue < c2.size()) w.chunk = c2[w.residue];
      if (keys[v] == r2 && w.residue < c1.size()) w.chunk = c1[w.residue];
    }
    out.push_back({"fragment-chunk-crosswire", encode_all(wires)});
  }

  // A neighboring region's fully reassembled prefix, re-sharded with the
  // victim region's own factor and planted on its nodes: a *valid* prefix
  // glued onto foreign suffixes.
  {
    std::uint64_t victim = regions[0];
    std::uint64_t donor = regions[1];
    for (graph::EdgeIndex e = 0; e < g.m(); ++e) {
      const graph::Edge& ed = g.edge(e);
      if (keys[ed.u] != keys[ed.v]) {
        victim = keys[ed.u];
        donor = keys[ed.v];
        break;
      }
    }
    const util::BitString donor_prefix = reassemble(chunks.at(donor));
    const std::vector<util::BitString> planted =
        detail::shard_chunks(donor_prefix, chunks.at(victim).size());
    std::vector<FragmentWire> wires = wires_a;
    for (graph::NodeIndex v = 0; v < n; ++v)
      if (keys[v] == victim) wires[v].chunk = planted[wires[v].residue];
    out.push_back({"region-prefix-splice", encode_all(wires)});
  }

  return out;
}

}  // namespace pls::radius
