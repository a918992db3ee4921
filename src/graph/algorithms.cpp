#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "graph/bfs_core.hpp"
#include "graph/dsu.hpp"
#include "util/assert.hpp"

namespace pls::graph {

namespace {

/// layered_bfs visitor recording the classic dist/parent arrays.  This is
/// the ground-truth end of the shared BFS core — the radius-t geometry
/// builder (radius/ball.cpp) drives the same traversal, so ball layer
/// structure and these distances cannot drift apart.
struct DistParentVisitor {
  BfsResult* r;
  const std::vector<bool>* edge_mask;

  void discover(NodeIndex v, std::uint32_t, std::uint32_t dist,
                NodeIndex parent, EdgeIndex) {
    r->dist[v] = dist;
    r->parent[v] = parent;
  }
  void row(NodeIndex, std::uint32_t, std::uint32_t) {}
  void edge_in(std::uint32_t, std::uint32_t, std::uint32_t) {}
  void edge_beyond(NodeIndex, EdgeIndex) {}
  bool accept_edge(EdgeIndex e) const {
    return edge_mask == nullptr || (*edge_mask)[e];
  }
};

BfsResult bfs_impl(const Graph& g, NodeIndex root,
                   const std::vector<bool>* edge_mask) {
  PLS_REQUIRE(root < g.n());
  BfsResult r;
  r.dist.assign(g.n(), BfsResult::kUnreachable);
  r.parent.assign(g.n(), kInvalidNode);
  VisitEpochSet scratch;
  std::vector<NodeIndex> frontier;
  layered_bfs(g, std::span<const NodeIndex>(&root, 1),
              BfsResult::kUnreachable, scratch, frontier,
              DistParentVisitor{&r, edge_mask});
  return r;
}

}  // namespace

BfsResult bfs(const Graph& g, NodeIndex root) { return bfs_impl(g, root, nullptr); }

BfsResult bfs_on_subgraph(const Graph& g, NodeIndex root,
                          const std::vector<bool>& edge_mask) {
  PLS_REQUIRE(edge_mask.size() == g.m());
  return bfs_impl(g, root, &edge_mask);
}

Components connected_components(const Graph& g) {
  std::vector<bool> all(g.m(), true);
  return components_of_subgraph(g, all);
}

Components components_of_subgraph(const Graph& g,
                                  const std::vector<bool>& edge_mask) {
  PLS_REQUIRE(edge_mask.size() == g.m());
  Components c;
  c.comp.assign(g.n(), std::numeric_limits<std::uint32_t>::max());
  for (NodeIndex start = 0; start < g.n(); ++start) {
    if (c.comp[start] != std::numeric_limits<std::uint32_t>::max()) continue;
    const auto id = static_cast<std::uint32_t>(c.count++);
    std::queue<NodeIndex> frontier;
    frontier.push(start);
    c.comp[start] = id;
    while (!frontier.empty()) {
      const NodeIndex v = frontier.front();
      frontier.pop();
      for (const AdjEntry& a : g.adjacency(v)) {
        if (!edge_mask[a.edge]) continue;
        if (c.comp[a.to] != std::numeric_limits<std::uint32_t>::max()) continue;
        c.comp[a.to] = id;
        frontier.push(a.to);
      }
    }
  }
  return c;
}

std::optional<std::vector<std::uint8_t>> bipartition(const Graph& g) {
  std::vector<std::uint8_t> color(g.n(), 2);  // 2 = unassigned
  for (NodeIndex start = 0; start < g.n(); ++start) {
    if (color[start] != 2) continue;
    color[start] = 0;
    std::queue<NodeIndex> frontier;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeIndex v = frontier.front();
      frontier.pop();
      for (const AdjEntry& a : g.adjacency(v)) {
        if (color[a.to] == 2) {
          color[a.to] = static_cast<std::uint8_t>(1 - color[v]);
          frontier.push(a.to);
        } else if (color[a.to] == color[v]) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

std::size_t diameter(const Graph& g) {
  PLS_REQUIRE(g.is_connected());
  std::size_t best = 0;
  for (NodeIndex v = 0; v < g.n(); ++v) {
    const BfsResult r = bfs(g, v);
    for (const std::uint32_t d : r.dist)
      best = std::max<std::size_t>(best, d);
  }
  return best;
}

bool is_spanning_tree(const Graph& g, const std::vector<bool>& edge_mask) {
  PLS_REQUIRE(edge_mask.size() == g.m());
  const std::size_t selected =
      static_cast<std::size_t>(std::count(edge_mask.begin(), edge_mask.end(), true));
  if (g.n() == 0 || selected != g.n() - 1) return false;
  return components_of_subgraph(g, edge_mask).count == 1;
}

bool is_forest(const Graph& g, const std::vector<bool>& edge_mask) {
  PLS_REQUIRE(edge_mask.size() == g.m());
  Dsu dsu(g.n());
  for (EdgeIndex e = 0; e < g.m(); ++e) {
    if (!edge_mask[e]) continue;
    if (!dsu.unite(g.edge(e).u, g.edge(e).v)) return false;
  }
  return true;
}

std::vector<std::vector<NodeIndex>> pointer_cycles(
    const std::vector<std::optional<NodeIndex>>& pointers) {
  const std::size_t n = pointers.size();
  std::vector<std::vector<NodeIndex>> cycles;
  // 0 = unvisited, 1 = on current walk, 2 = finished.
  std::vector<std::uint8_t> mark(n, 0);
  std::vector<std::uint32_t> walk_pos(n, 0);
  for (std::size_t start = 0; start < n; ++start) {
    if (mark[start] != 0) continue;
    std::vector<NodeIndex> walk;
    NodeIndex v = static_cast<NodeIndex>(start);
    while (true) {
      if (mark[v] == 1) {
        // Found a new cycle: the suffix of the walk from v's position.
        std::vector<NodeIndex> cycle(walk.begin() + walk_pos[v], walk.end());
        cycles.push_back(std::move(cycle));
        break;
      }
      if (mark[v] == 2) break;  // rejoins an already-processed path
      mark[v] = 1;
      walk_pos[v] = static_cast<std::uint32_t>(walk.size());
      walk.push_back(v);
      if (!pointers[v].has_value()) break;  // reached a root
      PLS_REQUIRE(*pointers[v] < n);
      v = *pointers[v];
    }
    for (const NodeIndex u : walk) mark[u] = 2;
  }
  return cycles;
}

bool is_spanning_in_tree(const Graph& g,
                         const std::vector<std::optional<NodeIndex>>& pointers) {
  if (pointers.size() != g.n() || g.n() == 0) return false;
  std::size_t roots = 0;
  std::vector<bool> mask(g.m(), false);
  for (NodeIndex v = 0; v < g.n(); ++v) {
    if (!pointers[v].has_value()) {
      ++roots;
      continue;
    }
    const auto e = g.find_edge(v, *pointers[v]);
    if (!e) return false;  // pointer must follow an actual edge
    mask[*e] = true;
  }
  if (roots != 1) return false;
  if (!pointer_cycles(pointers).empty()) return false;
  // n-1 pointer edges, acyclic, following graph edges => spanning tree.
  const std::size_t selected =
      static_cast<std::size_t>(std::count(mask.begin(), mask.end(), true));
  return selected == g.n() - 1 && is_spanning_tree(g, mask);
}

}  // namespace pls::graph
