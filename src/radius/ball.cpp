#include "radius/ball.hpp"

#include "util/assert.hpp"

namespace pls::radius {

/// layered_bfs visitor appending one center's geometry to a GeometryStore.
struct GeometryBuildVisitor {
  GeometryStore* s;
  const graph::Graph* g;
  std::uint32_t adj_base;  // adj_ size at center start
  bool whole = true;

  std::uint32_t rel_len() const {
    return static_cast<std::uint32_t>(s->adj_.size()) - adj_base;
  }

  void discover(graph::NodeIndex v, std::uint32_t, std::uint32_t dist,
                graph::NodeIndex, graph::EdgeIndex entry_edge) {
    GeomMember m;
    m.node = v;
    m.dist = dist;
    m.edge_weight =
        entry_edge == graph::kInvalidEdge ? graph::Weight{1} : g->weight(entry_edge);
    s->members_.push_back(m);
  }

  void row(graph::NodeIndex, std::uint32_t, std::uint32_t) {
    s->row_begin_.push_back(rel_len());
  }

  void edge_in(std::uint32_t, std::uint32_t v_slot, std::uint32_t) {
    s->adj_.push_back(v_slot);
  }

  void edge_beyond(graph::NodeIndex, graph::EdgeIndex) { whole = false; }

  bool accept_edge(graph::EdgeIndex) const { return true; }

  /// Row sentinel: the end of the last row.
  void finish() { s->row_begin_.push_back(rel_len()); }
};

void GeometryStore::clear() {
  members_.clear();
  layers_.clear();
  row_begin_.clear();
  adj_.clear();
  centers_.clear();
  t_ = 0;
}

void GeometryStore::build_center(const graph::Graph& g,
                                 graph::NodeIndex center, unsigned t,
                                 graph::VisitEpochSet& scratch,
                                 std::vector<graph::NodeIndex>& frontier) {
  PLS_REQUIRE(t >= 1);
  PLS_REQUIRE(center < g.n());
  PLS_REQUIRE(centers_.empty() || t_ == t);
  t_ = t;

  CenterMeta meta;
  meta.member_begin = static_cast<std::uint32_t>(members_.size());
  meta.layer_begin = static_cast<std::uint32_t>(layers_.size());
  meta.row_begin = static_cast<std::uint32_t>(row_begin_.size());
  meta.adj_begin = static_cast<std::uint32_t>(adj_.size());

  GeometryBuildVisitor visitor{this, &g, meta.adj_begin, true};
  graph::layered_bfs(g, std::span<const graph::NodeIndex>(&center, 1), t,
                     scratch, frontier, visitor);
  visitor.finish();
  meta.whole_component = visitor.whole;

  // Layer offsets from the members' dists (BFS order => sorted by dist);
  // trailing empty layers repeat the member count.
  const auto count =
      static_cast<std::uint32_t>(members_.size()) - meta.member_begin;
  layers_.reserve(layers_.size() + t + 2);
  std::uint32_t idx = 0;
  for (unsigned r = 0; r <= t + 1; ++r) {
    while (idx < count && members_[meta.member_begin + idx].dist < r) ++idx;
    layers_.push_back(idx);
  }

  centers_.push_back(meta);
}

GeometryView GeometryStore::view(std::size_t i) const {
  PLS_REQUIRE(i < centers_.size());
  const CenterMeta& c = centers_[i];
  const std::uint32_t adj_end = i + 1 < centers_.size()
                                    ? centers_[i + 1].adj_begin
                                    : static_cast<std::uint32_t>(adj_.size());
  const std::uint32_t count = layers_[c.layer_begin + t_ + 1];

  GeometryView v;
  v.members = std::span<const GeomMember>(members_).subspan(c.member_begin, count);
  v.layers =
      std::span<const std::uint32_t>(layers_).subspan(c.layer_begin, t_ + 2);
  v.row_begin =
      std::span<const std::uint32_t>(row_begin_).subspan(c.row_begin, count + 1);
  v.adj = std::span<const std::uint32_t>(adj_).subspan(c.adj_begin,
                                                       adj_end - c.adj_begin);
  v.radius = t_;
  v.whole_component = c.whole_component;
  return v;
}

std::size_t GeometryStore::bytes() const noexcept {
  return members_.size() * sizeof(GeomMember) +
         (layers_.size() + row_begin_.size() + adj_.size()) *
             sizeof(std::uint32_t) +
         centers_.size() * sizeof(CenterMeta);
}

void GeometryStore::shrink_to_fit() {
  members_.shrink_to_fit();
  layers_.shrink_to_fit();
  row_begin_.shrink_to_fit();
  adj_.shrink_to_fit();
  centers_.shrink_to_fit();
}

void BallView::bind(const GeometryView& geom, const local::Configuration& cfg,
                    const core::Labeling& labeling, local::Visibility mode) {
  const graph::Graph& g = cfg.graph();
  radius_ = geom.radius;
  whole_component_ = geom.whole_component;
  layers_ = geom.layers;
  row_begin_ = geom.row_begin;
  adj_ = geom.adj;

  members_.clear();
  members_.reserve(geom.members.size());
  const bool extended = mode == local::Visibility::kExtended;
  for (const GeomMember& gm : geom.members) {
    BallMember m;
    m.node = gm.node;
    m.dist = gm.dist;
    m.edge_weight = gm.edge_weight;
    m.cert = &labeling.certs[gm.node];
    if (extended) {
      m.state = &cfg.state(gm.node);
      m.id = g.id(gm.node);
      m.id_visible = true;
    }
    members_.push_back(m);
  }
}

const BallView& BallBuilder::build(const local::Configuration& cfg,
                                   const core::Labeling& labeling,
                                   graph::NodeIndex center, unsigned t,
                                   local::Visibility mode) {
  PLS_REQUIRE(t >= 1);
  PLS_REQUIRE(center < cfg.n());
  PLS_REQUIRE(labeling.size() == cfg.n());
  store_.clear();
  store_.build_center(cfg.graph(), center, t, scratch_, frontier_);
  ball_.bind(store_.view(0), cfg, labeling, mode);
  return ball_;
}

}  // namespace pls::radius
