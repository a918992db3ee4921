#include "radius/delta.hpp"

#include "pls/certificate.hpp"
#include "util/assert.hpp"

namespace pls::radius {

LabelingDelta LabelingDelta::diff(const core::Labeling& prev,
                                  const core::Labeling& next) {
  PLS_REQUIRE(prev.size() == next.size());
  LabelingDelta delta;
  for (graph::NodeIndex v = 0; v < prev.size(); ++v)
    if (!(prev.certs[v] == next.certs[v])) delta.touched.push_back(v);
  return delta;
}

}  // namespace pls::radius
