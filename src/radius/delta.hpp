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
// other center.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "pls/certificate.hpp"

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

}  // namespace pls::radius
