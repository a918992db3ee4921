// The link phase of stage 2: interning parsed certificates' link keys.
//
// After the parallel parse, BatchVerifier walks its per-node parse cache and
// interns every parse's link key (ParsedCert::link_key — the spread scheme's
// chunk payload) into a dense class id, ParsedCert::link_class (equal id <=>
// bit-identical key).  The per-ball agreement checks on the sweep hot path
// then compare ids instead of BitStrings.  Parses without a key are left
// kUnlinked.
//
// LinkTable is the one interning table, owned by the verifier and persistent
// across runs so a delta stream can relink incrementally:
//
//   * link() — the full link of a fresh parse cache: resets the table and
//     interns every parse, ids dense from 0 in first-encounter (node) order.
//   * relink() — the delta path: re-interns only the touched nodes' parses
//     against the table.  The table is append-only between full links, which
//     is the stability contract: an id once handed out always means the same
//     payload, so a dirty ball mixing freshly relinked members with members
//     carried forward from any earlier run still compares classes correctly —
//     in particular a certificate mutated *back* to its previous value gets
//     its previous id again.
//
// Append-only is a leak under an unbounded mutation stream: every novel
// payload mints a new entry and nothing ever retires, even though at most n
// payloads are live (one per resident parse).  relink() therefore re-seeds —
// runs the O(n) full link — once the table exceeds kReseedClassMultiple * n.
// A full link is the stability contract's epoch boundary anyway: it resets
// the table and re-interns every resident parse in one pass, so no
// comparison ever mixes ids from both sides of the reset.  The span from one
// full link or re-seed to the next is a *link epoch*.
//
// Thread contract: LinkTable carries no capability of its own.  It is
// serialized by its owning BatchVerifier's single-caller contract and mutated
// only in stage 2; the sweep workers that later read the ids it minted are
// ordered behind that mutation by the ThreadPool's job hand-off (pool mutex).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "graph/graph.hpp"
#include "radius/ball.hpp"
#include "util/bitstring.hpp"

namespace pls::radius::detail {

/// Incremental relinks re-seed the table (O(n) full link) once it exceeds
/// this multiple of the resident parse count, bounding a delta stream's
/// memory at ~kReseedClassMultiple live-set sizes of dead ids.
inline constexpr std::size_t kReseedClassMultiple = 4;

class LinkTable {
 public:
  /// Full link: resets the table, then interns every parse (null entries —
  /// malformed certificates — and keyless parses are skipped).
  void link(std::span<const std::unique_ptr<ParsedCert>> parsed);

  /// Incremental link: re-interns only the `touched` entries of `parsed`
  /// (the rest are carried forward from earlier runs against this table),
  /// then re-seeds (the full link's reset + intern pass) if the table has
  /// outgrown its bound.
  void relink(std::span<const std::unique_ptr<ParsedCert>> parsed,
              std::span<const graph::NodeIndex> touched);

  /// Distinct keys interned since the last full link.
  std::size_t size() const noexcept { return classes_.size(); }

  /// Times relink() re-seeded the table to bound its memory; cumulative
  /// over the table's lifetime (surfaced as DeltaStats::link_reseeds).
  std::uint64_t reseeds() const noexcept { return reseeds_; }

 private:
  void intern(ParsedCert* parsed);
  void intern_all(std::span<const std::unique_ptr<ParsedCert>> parsed);

  std::unordered_map<util::BitString, std::uint32_t, util::BitStringHash>
      classes_;
  std::uint64_t reseeds_ = 0;
};

}  // namespace pls::radius::detail
