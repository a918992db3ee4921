// R3 golden fixture (good): the verdict path iterates a node-id-ordered
// vector, the linker and the memo builder walk nodes in id order and only
// look keys up in their hash tables; a non-verdict exporter may iterate hash
// containers.
#include <cstdint>
#include <unordered_map>
#include <vector>

struct Verdict {
  bool ok;
};

Verdict verify_ball(const std::vector<int>& classes_by_node) {
  int acc = 0;
  for (int cls : classes_by_node) acc ^= cls;
  return Verdict{acc == 0};
}

// Ids dense from 0 in first-encounter (node) order, whatever the table's
// layout.
void relink(const std::vector<std::uint64_t>& payload_by_node,
            std::vector<std::uint32_t>& class_of) {
  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  class_of.clear();
  for (const std::uint64_t payload : payload_by_node) {
    const auto next = static_cast<std::uint32_t>(ids.size());
    class_of.push_back(ids.try_emplace(payload, next).first->second);
  }
}

// Group ids dense from 0 in node order: the memo builder looks regions up
// in its hash table but walks the nodes.
void memoize(const std::vector<std::uint64_t>& region_by_node,
             std::vector<std::uint32_t>& group_of) {
  std::unordered_map<std::uint64_t, std::uint32_t> groups;
  group_of.clear();
  for (const std::uint64_t region : region_by_node) {
    const auto next = static_cast<std::uint32_t>(groups.size());
    group_of.push_back(groups.try_emplace(region, next).first->second);
  }
}

int export_stats(const std::unordered_map<std::uint32_t, int>& m) {
  int acc = 0;
  for (const auto& [node, cls] : m) acc += cls + static_cast<int>(node);
  return acc;  // order-insensitive aggregate, not a verdict
}
