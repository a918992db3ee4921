// Shared link-phase helpers for the spread schemes' parse caches.
//
// Both SpreadScheme and FragmentSpreadScheme implement the link hooks the
// same way: walk the verifier's per-node parse cache and intern each
// certificate's chunk payload into a dense class id (equal id <=>
// bit-identical chunk), so the per-ball chunk-agreement checks on the verify
// hot path compare ids instead of BitStrings.  The helpers are templated on
// the scheme's ParsedCert subclass, which must expose `wire.chunk` (the
// payload) and `chunk_class` (the slot to fill).
//
// Two variants serve the two pipeline entries:
//
//   * intern_chunk_classes — the stateless full link (BallScheme::
//     link_parses): one throwaway table per labeling, ids dense from 0 in
//     first-encounter order.
//   * ChunkInternState + the stateful pair — the delta path.  The table
//     lives in the verifier (BallScheme::make_link_state) and persists
//     across run_delta calls: a full link resets it (same ids as the
//     stateless variant, bit for bit), an incremental relink re-interns only
//     the touched nodes' payloads against it.  The table is append-only
//     between full links, which is exactly the relink_parses stability
//     contract: an id once handed out always means the same payload, so a
//     dirty ball mixing freshly relinked members with members carried
//     forward from any earlier run still compares classes correctly — in
//     particular a certificate mutated *back* to its previous value gets its
//     previous id again.
//
// Append-only is a leak under an unbounded mutation stream: every novel
// payload mints a new entry and nothing ever retires, even though at most n
// payloads are live (one per resident parse).  relink_chunk_classes therefore
// re-seeds — runs the O(n) stateful full link — once the table exceeds
// kReseedClassMultiple * n.  A full link is the stability contract's epoch
// boundary anyway: it resets the table and re-interns every resident parse in
// one pass, so no comparison ever mixes ids from both sides of the reset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>

#include "radius/ball.hpp"
#include "radius/engine_t.hpp"
#include "util/assert.hpp"
#include "util/bitstring.hpp"

namespace pls::radius::detail {

/// The spread schemes' per-verifier link state: the chunk-payload interning
/// table shared by both stateful helpers below.
class ChunkInternState final : public LinkState {
 public:
  std::unordered_map<util::BitString, std::uint32_t, util::BitStringHash>
      classes;
};

/// Incremental relinks re-seed the intern table (O(n) full link) once it
/// exceeds this multiple of the resident parse count, bounding a delta
/// stream's memory at ~kReseedClassMultiple live-set sizes of dead ids.
inline constexpr std::size_t kReseedClassMultiple = 4;

template <typename Parsed>
void intern_into(
    std::unordered_map<util::BitString, std::uint32_t, util::BitStringHash>&
        classes,
    const std::unique_ptr<ParsedCert>& p) {
  if (p == nullptr) return;
  auto* sp = static_cast<Parsed*>(p.get());
  // Ids are minted from the table size: past 2^32 entries the cast would
  // wrap and silently alias two distinct payloads — the one failure a
  // verifier must never turn into a wrong verdict.  The re-seed bound keeps
  // real streams far below this; the check makes the contract explicit.
  PLS_ASSERT(classes.size() <=
             std::numeric_limits<std::uint32_t>::max());
  const auto [it, inserted] =
      classes.emplace(sp->wire.chunk, static_cast<std::uint32_t>(classes.size()));
  sp->chunk_class = it->second;
}

template <typename Parsed>
void intern_chunk_classes(
    std::span<const std::unique_ptr<ParsedCert>> parsed) {
  std::unordered_map<util::BitString, std::uint32_t, util::BitStringHash>
      classes;
  for (const std::unique_ptr<ParsedCert>& p : parsed)
    intern_into<Parsed>(classes, p);
}

/// Stateful full link: resets the table, then interns every parse — the
/// observable ids are identical to intern_chunk_classes's.
template <typename Parsed>
void intern_chunk_classes_stateful(
    ChunkInternState& state,
    std::span<const std::unique_ptr<ParsedCert>> parsed) {
  state.classes.clear();
  for (const std::unique_ptr<ParsedCert>& p : parsed)
    intern_into<Parsed>(state.classes, p);
}

/// Incremental relink: re-interns only `touched` entries against the
/// persistent (append-only since the last full link) table, then re-seeds
/// via the stateful full link if the table has outgrown its bound.
template <typename Parsed>
void relink_chunk_classes(ChunkInternState& state,
                          std::span<const std::unique_ptr<ParsedCert>> parsed,
                          std::span<const graph::NodeIndex> touched) {
  for (const graph::NodeIndex v : touched)
    intern_into<Parsed>(state.classes, parsed[v]);
  if (state.classes.size() > kReseedClassMultiple * parsed.size()) {
    intern_chunk_classes_stateful<Parsed>(state, parsed);
    ++state.reseeds;
  }
}

}  // namespace pls::radius::detail
