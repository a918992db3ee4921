// Delta-aware incremental verification: the labeling-delta front door's
// supporting types (batch.hpp hosts the entry point itself).
//
// The t-PLS verifier's locality is the whole point of the model: a center's
// verdict is a pure function of the certificates inside its radius-t ball,
// so when a labeling differs from the previously verified one at only k
// nodes, only centers within hop distance t of those k nodes can change
// their verdict.  Error-sensitive PLS (Feuilloley–Fraigniaud) formalizes
// exactly this error-locality; the adversary's hill-climb — thousands of
// single-certificate candidates against one configuration — is the workload
// that cashes it in.  BatchVerifier::run_delta re-parses only the mutated
// certificates, re-links them with stable interned class ids, re-sweeps only
// the *dirty* centers, and splices the carried-forward verdicts of every
// clean center.
//
// DirtyIndex is the reverse-ball index of that pipeline: which centers'
// radius-r balls contain a given node?  Hop distance is symmetric, so the
// answer is exactly the node's own forward ball — the same layer-partitioned
// geometry the GeometryAtlas already caches per (graph epoch, radius, block).
// The index therefore derives the dirty set by reading ball membership from
// the atlas (each touched node is itself a dirty center of its own block, so
// a lookup never builds geometry the sweep won't want), deduplicating with
// an epoch-stamped visited set, and handing back the centers sorted — so
// each contiguous chunk the work-stealing sweep claims walks its atlas
// blocks in order.  At r = 1 the ball is the closed neighborhood and the
// graph's adjacency answers directly, with no geometry at all (the plain
// 1-round schemes' path).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "radius/atlas.hpp"

namespace pls::radius {

/// The mutation set between the previously verified labeling and the next
/// candidate: every node whose certificate MAY differ.  An over-approximation
/// is always safe (listed-but-unchanged nodes are re-parsed and their
/// neighborhoods re-swept to the same verdicts); an under-approximation is a
/// contract violation — clean centers' verdicts are carried forward, not
/// re-checked.  Duplicates are allowed.
struct LabelingDelta {
  std::vector<graph::NodeIndex> touched;

  /// The exact mutation set: nodes whose certificates are not bit-identical
  /// between the two labelings.  O(n) certificate compares — callers that
  /// already know what they mutated (the hill-climb) should say so instead.
  static LabelingDelta diff(const core::Labeling& prev,
                            const core::Labeling& next);
};

/// Work counters of the delta path, the observable proof of its incremental
/// contract: an empty mutation set moves none of them, and a k-mutation run
/// re-parses exactly its touched list and re-sweeps exactly the dirty set.
struct DeltaStats {
  std::uint64_t delta_runs = 0;        ///< run_delta calls
  std::uint64_t empty_runs = 0;        ///< of those: no touched node at all
  std::uint64_t certs_reparsed = 0;    ///< stage-2 parses done by delta runs
  std::uint64_t links_incremental = 0; ///< LinkTable relinks (stable ids)
  std::uint64_t link_reseeds = 0;      ///< LinkTable memory-bound rebuilds
                                       ///< (intern-table epoch resets)
  std::uint64_t centers_reswept = 0;   ///< stage-3 verify calls by delta runs
  std::uint64_t verdicts_carried = 0;  ///< clean centers spliced, not swept
};

/// Reverse-ball index over one graph: resolves a mutation set to the sorted,
/// deduplicated list of dirty centers (centers whose radius-r ball contains
/// a touched node).  Holds only epoch-stamped scratch; the geometry itself
/// stays in the atlas, shared with the sweep.
class DirtyIndex {
 public:
  /// Dirty centers of `touched` at radius r >= 1.  The returned span aliases
  /// index-internal storage: valid until the next collect() call.
  std::span<const graph::NodeIndex> collect(
      GeometryAtlas& atlas, const graph::Graph& g, unsigned r,
      std::span<const graph::NodeIndex> touched);

 private:
  void add(graph::NodeIndex center);

  graph::VisitEpochSet seen_;  ///< dedupe marks, O(1) reset per collect
  std::vector<graph::NodeIndex> dirty_;
};

}  // namespace pls::radius
