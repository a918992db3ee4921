// Splice attacks on certificate spreading.
//
// The spread transform's soundness story has one structurally novel
// obligation the generic adversary strategies don't probe: every
// reassembled prefix must be *consistent across overlapping balls*.  The
// error-sensitivity literature (Feuilloley–Fraigniaud) frames exactly this
// failure mode: adversarial certificates that are locally well-formed
// everywhere but splice two incompatible global claims together.  This
// module builds such labelings deliberately:
//
//   * fragment-region-prefix: the near and far halves of each component
//                        carry the markings of two different legal
//                        instances — two halves voting different
//                        reassembled prefixes;
//   * fragment-suffix-crossbreed: chunks/residues of one legal marking,
//                        residual suffixes of another;
//   * residue-rotate-region / fragment-residue-rotate: every certificate of
//                        the far half (or of the whole graph) keeps its
//                        chunk but claims the cyclically-next residue
//                        class, so balls reassemble a rotated — wrong —
//                        prefix while residues still look like BFS
//                        distances;
//   * chunk-crosswire:   the payloads of residue classes 0 and 1 are swapped
//                        in every region, a transposition of the prefix
//                        bits that is internally consistent per class;
//   * tag-flip:          the near half keeps one instance's wires unnamed,
//                        the far half carries the other's under a named
//                        region, so the halves never compare chunk classes
//                        across the seam.
//
// When the honest marking names its regions (a component split into
// several), region-crossing attacks join the roster:
//
//   * region-id-rotate:  every region claims the next region's name — the
//                        partition is untouched, but a region is named by
//                        its minimum-id member, so the region with the
//                        smallest name now claims a name above its
//                        landmark's id;
//   * fragment-chunk-crosswire: two regions swap their chunk payloads
//                        class-by-class, each region staying internally
//                        consistent while reassembling the other's prefix;
//   * region-prefix-splice: one region's fully reassembled prefix is
//                        re-sharded with a neighboring region's factor and
//                        planted on that region's nodes, gluing a valid
//                        prefix onto foreign suffixes.
//
// Every attack is a labeling the t-round engine must reject somewhere when
// the configuration is illegal; the adversary suite (pls/adversary.hpp)
// feeds them through `attack` automatically for spread schemes.
#pragma once

#include <string>
#include <vector>

#include "radius/fragment_spread.hpp"
#include "util/rng.hpp"

namespace pls::radius {

/// Splice attacks are the spread scheme's SchemeAttack suite (the adversary
/// mounts them through BallScheme::adversarial_labelings).
using SpliceAttack = SchemeAttack;

/// Builds the splice-attack labelings for `scheme` on cfg's graph.  Returns
/// an empty vector when the base language is not constructible there (no
/// legal instance to splice from).  The region-crossing variants appear
/// whenever the honest marking names at least two regions.
std::vector<SpliceAttack> fragment_splice_attacks(
    const FragmentSpreadScheme& scheme, const local::Configuration& cfg,
    util::Rng& rng);

}  // namespace pls::radius
