// Shared visited-epoch BFS core.
//
// Two BFS families used to carry their own visited-set logic: the
// centralized ground-truth queries in graph/algorithms.cpp (dist/parent
// arrays reallocated per call) and the radius-t ball construction in
// radius/ball.cpp (epoch-stamped scratch persisting across centers).  The
// geometry atlas makes ball geometry a cached, shared artifact, so there must
// be exactly one definition of "the layered BFS order from a root" — this
// header is it.  Both callers drive `layered_bfs` below; what differs is only
// the visitor they plug in.  So do stage 2's clean set and the delta path's
// dirty set (radius/batch.hpp): the same layered_bfs, started from a set of
// roots.
//
// VisitEpochSet is the O(1)-reset membership structure: each node carries the
// epoch of its last visit plus a payload slot (its discovery index).  Bumping
// the epoch invalidates every mark at once; the arrays are reallocated only
// when the graph size changes or the 32-bit epoch wraps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace pls::graph {

class VisitEpochSet {
 public:
  /// Starts a fresh visit epoch over `n` nodes: every previous mark becomes
  /// invalid in O(1) (O(n) only on first use, size change, or epoch wrap).
  void reset(std::size_t n) {
    if (epoch_of_.size() != n || epoch_ == UINT32_MAX) {
      epoch_of_.assign(n, 0);
      slot_.assign(n, 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  bool visited(NodeIndex v) const { return epoch_of_[v] == epoch_; }

  void visit(NodeIndex v, std::uint32_t slot) {
    epoch_of_[v] = epoch_;
    slot_[v] = slot;
  }

  /// Payload of the current epoch's visit (the discovery index assigned by
  /// layered_bfs).  Only meaningful when visited(v).
  std::uint32_t slot(NodeIndex v) const { return slot_[v]; }

  /// Test hook: forces the epoch counter so the wraparound reset is
  /// exercisable without 2^32 resets.  Not for production use.
  void set_epoch_for_testing(std::uint32_t epoch) noexcept { epoch_ = epoch; }

 private:
  std::vector<std::uint32_t> epoch_of_;  // per node: epoch of last visit
  std::vector<std::uint32_t> slot_;      // per node: slot in that epoch
  std::uint32_t epoch_ = 0;
};

/// The single layered-BFS driver.  Expands from `roots` up to hop distance
/// `max_depth`, assigning each reached node a dense discovery slot (the
/// roots first, in span order, at distance 0; then layer by layer, within a
/// layer in the scanning nodes' adjacency order — the order every ball view
/// and BFS tree in the codebase exposes).  One root is a ball or a BFS tree;
/// several roots are a multi-source BFS, whose distances are each node's hop
/// distance to the nearest root.  A repeated root is discovered once.
///
/// The visitor observes the traversal through five hooks:
///   * discover(v, slot, dist, parent, entry_edge) — once per reached node,
///     in slot order; a root has parent = kInvalidNode and
///     entry_edge = kInvalidEdge.
///   * row(u, u_slot, u_dist) — u's edge scan starts (slot order again).
///   * edge_in(u_slot, v_slot, v_dist) — a scanned edge whose far end is in
///     the traversal (already discovered, or discovered by this very edge).
///   * edge_beyond(u, e) — a scanned edge leaving the depth limit (far end
///     not expanded; only possible when u_dist == max_depth).
///   * accept_edge(e) — traversal-wide edge filter; return false to make the
///     edge invisible (the subgraph BFS of graph/algorithms.cpp).
///
/// `scratch` supplies the visited marks and discovery slots; `frontier` is
/// the reusable discovery-order queue (cleared here, left holding the
/// traversal order on return).  O(reached nodes + their edges), however
/// many roots there are.
template <typename Visitor>
void layered_bfs(const Graph& g, std::span<const NodeIndex> roots,
                 std::uint32_t max_depth, VisitEpochSet& scratch,
                 std::vector<NodeIndex>& frontier, Visitor&& visitor) {
  scratch.reset(g.n());
  frontier.clear();

  for (const NodeIndex root : roots) {
    PLS_REQUIRE(root < g.n());
    if (scratch.visited(root)) continue;
    const auto slot = static_cast<std::uint32_t>(frontier.size());
    scratch.visit(root, slot);
    frontier.push_back(root);
    visitor.discover(root, slot, 0, kInvalidNode, kInvalidEdge);
  }

  std::size_t layer_begin = 0;
  for (std::uint32_t dist = 0; dist <= max_depth; ++dist) {
    const std::size_t layer_end = frontier.size();
    if (layer_begin == layer_end) break;  // component exhausted early
    for (std::size_t i = layer_begin; i < layer_end; ++i) {
      const NodeIndex u = frontier[i];
      const auto u_slot = static_cast<std::uint32_t>(i);
      visitor.row(u, u_slot, dist);
      for (const AdjEntry& a : g.adjacency(u)) {
        if (!visitor.accept_edge(a.edge)) continue;
        if (scratch.visited(a.to)) {
          visitor.edge_in(u_slot, scratch.slot(a.to), dist);
        } else if (dist < max_depth) {
          const auto v_slot = static_cast<std::uint32_t>(frontier.size());
          scratch.visit(a.to, v_slot);
          frontier.push_back(a.to);
          visitor.discover(a.to, v_slot, dist + 1, u, a.edge);
          visitor.edge_in(u_slot, v_slot, dist);
        } else {
          visitor.edge_beyond(u, a.edge);
        }
      }
    }
    layer_begin = layer_end;
  }
}

/// The visitor of a plain reachability pass: it observes nothing, and the
/// `frontier` layered_bfs leaves behind — every node within `max_depth` of
/// a root — is the whole result.
struct ReachVisitor {
  void discover(NodeIndex, std::uint32_t, std::uint32_t, NodeIndex,
                EdgeIndex) {}
  void row(NodeIndex, std::uint32_t, std::uint32_t) {}
  void edge_in(std::uint32_t, std::uint32_t, std::uint32_t) {}
  void edge_beyond(NodeIndex, EdgeIndex) {}
  bool accept_edge(EdgeIndex) const { return true; }
};

}  // namespace pls::graph
