// Radius-t verifier views: what a node learns in t verification rounds.
//
// A t-round verifier at node v sees its *ball* of radius t — every node at
// hop distance <= t, with that node's certificate always visible and its
// state/id additionally visible under Extended visibility (the same split as
// the 1-round views in local/views.hpp).  The ball's topology (who is at
// which distance, which ball members are adjacent) is structural knowledge in
// both modes, matching how ports are treated in the 1-round model and how
// t-PLS formalizations define the view.  Of the edge weights, only each
// member's BFS-tree entry edge is carried (BallMember::edge_weight — enough
// for the layer-1 bridge); a weighted radius-t scheme that compares
// arbitrary intra-ball weights would need them added to the adjacency CSR.
//
// The representation is split along the staged verification pipeline:
//
//   Stage 1 — GEOMETRY.  GeometryStore holds the labeling-independent part
//   of a run of balls (member nodes, BFS layers, entry-edge weights, the
//   ball-internal adjacency CSR, the whole-component flag), built once per
//   (graph, t, center) by the shared layered-BFS core (graph/bfs_core.hpp)
//   and immutable afterwards.  A member's adjacency row lists its ball
//   neighbours in the graph's adjacency order.  GeometryStore is what the
//   memory-budgeted GeometryAtlas (radius/atlas.hpp) caches and shares
//   across verifiers and thread-pool slots; a store serves exactly the
//   radius it was built at.
//
//   Stage 3 — BINDING.  BallView is the per-(labeling, center) object the
//   decoders read: BallView::bind points an immutable GeometryView at one
//   configuration + labeling, filling in certificate/state/id pointers
//   without re-running any BFS.  The bound view aliases both the geometry
//   and its own member scratch; it is invalidated by the next bind.
//
// BallBuilder composes the two for callers outside the staged pipeline (the
// reference engine, tests): build() = build one center's geometry into
// private scratch + bind.  Scratch (epoch-stamped visited marks, member
// arrays, CSR buffers) persists across build() calls, so an engine sweeping
// adjacent centers allocates O(n) once instead of per ball.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "graph/bfs_core.hpp"
#include "local/views.hpp"
#include "pls/certificate.hpp"
#include "util/bitstring.hpp"

namespace pls::radius {

/// The labeling-independent record of one ball member.
struct GeomMember {
  graph::NodeIndex node = graph::kInvalidNode;  ///< dense simulation index
  std::uint32_t dist = 0;                       ///< hops from the center
  /// Weight of the BFS tree edge through which the member was first reached
  /// (1 for the center).
  graph::Weight edge_weight = 1;
};

/// A zero-copy window onto one center's geometry.  Plain spans into
/// GeometryStore (or BallBuilder) storage; valid for as long as that
/// storage is.
struct GeometryView {
  std::span<const GeomMember> members;        ///< BFS order, center first
  std::span<const std::uint32_t> layers;      ///< radius+2 offsets
  std::span<const std::uint32_t> row_begin;   ///< per member, +1 sentinel
  std::span<const std::uint32_t> adj;         ///< member-local slot ids
  unsigned radius = 0;
  bool whole_component = false;

  /// Ball-internal neighbors of members[i] (indices into members).
  std::span<const std::uint32_t> neighbors_of(std::uint32_t i) const {
    return adj.subspan(row_begin[i], row_begin[i + 1] - row_begin[i]);
  }
};

/// Immutable geometry for a run of centers over one (graph, t) — built
/// center by center through the shared layered-BFS core, then read-shared.
/// This is the single source of truth for ball geometry: BallBuilder, the
/// atlas, and the staged sweep all construct balls through it.
class GeometryStore {
 public:
  /// Discards all centers, keeping buffer capacity (scratch reuse).
  void clear();

  /// Builds and appends the radius-t ball geometry around `center`.
  /// Every center of one store must share the graph and t; requires t >= 1.
  /// `scratch`/`frontier` are the caller's reusable BFS scratch.
  void build_center(const graph::Graph& g, graph::NodeIndex center,
                    unsigned t, graph::VisitEpochSet& scratch,
                    std::vector<graph::NodeIndex>& frontier);

  std::size_t center_count() const noexcept { return centers_.size(); }
  unsigned radius() const noexcept { return t_; }

  /// The i-th built center's geometry.
  GeometryView view(std::size_t i) const;

  /// Resident bytes (the atlas's budget accounting unit).
  std::size_t bytes() const noexcept;

  /// Drops slack capacity after the final build_center (cached stores).
  void shrink_to_fit();

 private:
  friend struct GeometryBuildVisitor;

  struct CenterMeta {
    std::uint32_t member_begin = 0;  // into members_
    std::uint32_t layer_begin = 0;   // into layers_ (t+2 entries)
    std::uint32_t row_begin = 0;     // into row_begin_ (count+1)
    std::uint32_t adj_begin = 0;     // into adj_
    bool whole_component = true;
  };

  std::vector<GeomMember> members_;
  std::vector<std::uint32_t> layers_;
  std::vector<std::uint32_t> row_begin_;
  std::vector<std::uint32_t> adj_;
  std::vector<CenterMeta> centers_;
  unsigned t_ = 0;
};

struct BallMember {
  graph::NodeIndex node = graph::kInvalidNode;  ///< dense simulation index
  std::uint32_t dist = 0;                       ///< hops from the center
  const local::Certificate* cert = nullptr;     ///< always visible
  const local::State* state = nullptr;          ///< Extended only
  graph::RawId id = 0;                          ///< Extended only
  bool id_visible = false;
  /// Weight of the BFS tree edge through which the member was first reached
  /// (1 for the center).  For layer-1 members this is the weight of the edge
  /// to the center, matching the 1-round NeighborView.
  graph::Weight edge_weight = 1;
};

class BallView {
 public:
  /// Members in BFS order: the center first, then layer 1 in the center's
  /// adjacency order, then layer 2, ...  The layer-1 ordering is what makes
  /// the 1-round bridge bit-for-bit identical to the 1-round engine.
  std::span<const BallMember> members() const noexcept { return members_; }

  std::size_t size() const noexcept { return members_.size(); }

  /// The requested radius t (layers beyond the component may be empty).
  unsigned radius() const noexcept { return radius_; }

  /// Members at hop distance exactly r, r in [0, radius()].
  std::span<const BallMember> layer(unsigned r) const {
    PLS_REQUIRE(r < layers_.size() - 1);
    return std::span<const BallMember>(members_).subspan(
        layers_[r], layers_[r + 1] - layers_[r]);
  }

  /// Ball-internal adjacency: indices (into members()) of the ball members
  /// adjacent to members()[member_index].
  std::span<const std::uint32_t> neighbors_of(std::uint32_t member_index) const {
    PLS_REQUIRE(member_index < members_.size());
    const std::uint32_t begin = row_begin_[member_index];
    return adj_.subspan(begin, row_begin_[member_index + 1] - begin);
  }

  /// True when the ball is the center's entire connected component, i.e.
  /// t >= the center's eccentricity (always detected, even when t exceeds
  /// the component's diameter).
  bool whole_component() const noexcept { return whole_component_; }

  /// Stage-3 entry point: points this view at `geom` under (cfg, labeling),
  /// filling per-member certificate/state/id pointers — no BFS, no CSR
  /// work.  The view aliases `geom`'s storage; it is valid while that
  /// storage is and until the next bind() on this view.
  void bind(const GeometryView& geom, const local::Configuration& cfg,
            const core::Labeling& labeling, local::Visibility mode);

 private:
  std::vector<BallMember> members_;
  std::span<const std::uint32_t> layers_;
  std::span<const std::uint32_t> row_begin_;
  std::span<const std::uint32_t> adj_;
  unsigned radius_ = 0;
  bool whole_component_ = false;
};

class BallBuilder {
 public:
  /// Materializes the radius-t ball around `center`: one GeometryStore
  /// build (private scratch) plus a bind.  Requires t >= 1 (a verifier
  /// always runs at least one round; t = 0 is invalid input).  The returned
  /// view aliases builder-internal storage: it is valid until the next
  /// build() call on this builder.
  const BallView& build(const local::Configuration& cfg,
                        const core::Labeling& labeling,
                        graph::NodeIndex center, unsigned t,
                        local::Visibility mode);

  /// Test hook: forces the epoch counter so the wraparound reset is
  /// exercisable without 2^32 builds.  Not for production use.
  void set_epoch_for_testing(std::uint32_t epoch) noexcept {
    scratch_.set_epoch_for_testing(epoch);
  }

 private:
  GeometryStore store_;
  graph::VisitEpochSet scratch_;
  std::vector<graph::NodeIndex> frontier_;
  BallView ball_;
};

/// Base class for scheme-defined parsed certificates (the parse-once cache of
/// the verification pipeline).  BallScheme::parse_cert returns the scheme's
/// own subclass; stage 2 parses each node's certificate exactly once, interns
/// every parse's link key (detail::LinkTable, parse_link.hpp), and hands the
/// per-node results to every verify_ball call through RadiusContext::parsed.
/// A parse owns every byte it holds and never aliases its certificate.
class ParsedCert {
 public:
  /// link_class of a parse that was never interned: it has no link key, or
  /// it lives outside a verifier's parse cache.
  static constexpr std::uint32_t kUnlinked =
      std::numeric_limits<std::uint32_t>::max();

  virtual ~ParsedCert() = default;

  /// The payload stage 2 interns for this parse — for the spread scheme,
  /// its chunk — or nullptr when there is nothing to intern.  Must stay
  /// valid and unchanged while the parse is resident.
  virtual const util::BitString* link_key() const noexcept { return nullptr; }

  /// Dense class id of link_key(), assigned by the verifier's link phase:
  /// two resident parses carry equal ids iff their keys are bit-identical,
  /// so the sweep's equality checks compare ids instead of BitStrings.
  std::uint32_t link_class = kUnlinked;

 protected:
  ParsedCert() = default;
};

/// The full verifier input for one t-round evaluation: the center's own data
/// plus its ball.  The mirror of local::VerifierContext one level up.
class RadiusContext {
 public:
  RadiusContext(const BallView& ball, graph::RawId center_id,
                const local::State& center_state,
                const local::Certificate& center_cert, local::Visibility mode,
                std::size_t network_size,
                std::span<const std::unique_ptr<ParsedCert>> parse_cache = {})
      : ball_(&ball),
        id_(center_id),
        state_(&center_state),
        cert_(&center_cert),
        mode_(mode),
        network_size_(network_size),
        parsed_(parse_cache) {}

  const BallView& ball() const noexcept { return *ball_; }

  /// A node always knows its own identity, whatever the visibility mode.
  graph::RawId id() const noexcept { return id_; }
  const local::State& state() const noexcept { return *state_; }
  const local::Certificate& certificate() const noexcept { return *cert_; }
  local::Visibility mode() const noexcept { return mode_; }
  std::size_t network_size() const noexcept { return network_size_; }

  /// Parse-once cache (stage 2): true when every node's certificate was
  /// pre-parsed by the scheme's parse_cert (BatchVerifier always supplies
  /// one; the reference engine run_verifier_t_baseline never does).
  bool has_parse_cache() const noexcept { return !parsed_.empty(); }

  /// The cached parse of node v's certificate; nullptr means parse_cert
  /// rejected it as malformed (the scheme decides what that implies for the
  /// ball's verdict).  Requires has_parse_cache().
  const ParsedCert* parsed(graph::NodeIndex v) const {
    PLS_REQUIRE(v < parsed_.size());
    return parsed_[v].get();
  }

 private:
  const BallView* ball_;
  graph::RawId id_;
  const local::State* state_;
  const local::Certificate* cert_;
  local::Visibility mode_;
  std::size_t network_size_;
  std::span<const std::unique_ptr<ParsedCert>> parsed_;
};

}  // namespace pls::radius
