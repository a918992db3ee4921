#include "radius/parse_link.hpp"

#include <limits>

#include "util/assert.hpp"
#include "util/failpoint.hpp"

namespace pls::radius::detail {

void LinkTable::intern(ParsedCert* parsed) {
  if (parsed == nullptr) return;
  const util::BitString* key = parsed->link_key();
  if (key == nullptr) return;
  // Ids are minted from the table size: past 2^32 entries the cast would
  // wrap and silently alias two distinct payloads — the one failure a
  // verifier must never turn into a wrong verdict.  The re-seed bound keeps
  // real streams far below this; the check makes the contract explicit.
  PLS_ASSERT(classes_.size() <= std::numeric_limits<std::uint32_t>::max());
  // try_emplace copies the key only when it is new; emplace would build
  // (and copy into) a node for every lookup.
  const auto [it, inserted] =
      classes_.try_emplace(*key, static_cast<std::uint32_t>(classes_.size()));
  parsed->link_class = it->second;
}

void LinkTable::intern_all(
    std::span<const std::unique_ptr<ParsedCert>> parsed) {
  classes_.clear();
  for (const std::unique_ptr<ParsedCert>& p : parsed) intern(p.get());
}

void LinkTable::link(std::span<const std::unique_ptr<ParsedCert>> parsed) {
  PLS_FAILPOINT("radius.link");
  intern_all(parsed);
}

void LinkTable::relink(std::span<const std::unique_ptr<ParsedCert>> parsed,
                       std::span<const graph::NodeIndex> touched) {
  PLS_FAILPOINT("radius.link");
  for (const graph::NodeIndex v : touched) intern(parsed[v].get());
  if (classes_.size() > kReseedClassMultiple * parsed.size()) {
    intern_all(parsed);
    ++reseeds_;
  }
}

}  // namespace pls::radius::detail
