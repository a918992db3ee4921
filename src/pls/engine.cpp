#include "pls/engine.hpp"

#include "util/assert.hpp"

namespace pls::core {

namespace detail {

bool verify_one_round_at(const Scheme& scheme, const local::Configuration& cfg,
                         const Labeling& labeling, graph::NodeIndex v,
                         std::vector<local::NeighborView>& scratch) {
  return verify_one_round_with(
      scheme, cfg, v,
      [&labeling](graph::NodeIndex u) -> const local::Certificate& {
        return labeling.certs[u];
      },
      scratch);
}

std::size_t node_payload_bits(const Scheme& scheme,
                              const local::Configuration& cfg,
                              const Labeling& labeling, graph::NodeIndex v) {
  std::size_t bits = labeling.certs[v].bit_size();
  if (scheme.visibility() == local::Visibility::kExtended)
    bits += cfg.state(v).bit_size() + 64;  // state + id
  return bits;
}

}  // namespace detail

Verdict run_verifier(const Scheme& scheme, const local::Configuration& cfg,
                     const Labeling& labeling) {
  PLS_REQUIRE(labeling.size() == cfg.n());
  const graph::Graph& g = cfg.graph();

  std::vector<bool> accept(cfg.n());
  std::vector<local::NeighborView> scratch;
  for (graph::NodeIndex v = 0; v < g.n(); ++v)
    accept[v] = detail::verify_one_round_at(scheme, cfg, labeling, v, scratch);
  return Verdict(std::move(accept));
}

bool completeness_holds(const Scheme& scheme,
                        const local::Configuration& cfg) {
  PLS_REQUIRE(scheme.language().contains(cfg));
  const Labeling labeling = scheme.mark(cfg);
  return run_verifier(scheme, cfg, labeling).all_accept();
}

std::size_t verification_round_bits(const Scheme& scheme,
                                    const local::Configuration& cfg,
                                    const Labeling& labeling) {
  PLS_REQUIRE(labeling.size() == cfg.n());
  const graph::Graph& g = cfg.graph();
  std::size_t bits = 0;
  for (const graph::Edge& e : g.edges())
    for (const graph::NodeIndex v : {e.u, e.v})
      bits += detail::node_payload_bits(scheme, cfg, labeling, v);
  return bits;
}

}  // namespace pls::core
