// R3 golden fixture (bad): a verdict-producing function, a class-id linker
// and a stage-2 memo builder each iterating an unordered container — hash
// order would feed the verdict, or the ids the verdict compares.
#include <cstdint>
#include <unordered_map>
#include <vector>

struct Verdict {
  bool ok;
};

Verdict verify_ball(const std::unordered_map<std::uint32_t, int>& classes) {
  int acc = 0;
  for (const auto& [node, cls] : classes) acc ^= cls + static_cast<int>(node);
  return Verdict{acc == 0};
}

// Mints class ids in hash order: the same payloads get different ids from
// one table layout to the next.
void relink(const std::unordered_map<std::uint64_t, std::uint32_t>& payloads,
            std::vector<std::uint32_t>& class_of) {
  std::uint32_t next = 0;
  for (const auto& [payload, node] : payloads) class_of[node] = next++;
}

// Mints group ids in hash order: which group a region's members join (and
// so which memo they read) depends on the table's layout.
void memoize(const std::unordered_map<std::uint64_t, std::uint32_t>& regions,
             std::vector<std::uint32_t>& group_of) {
  std::uint32_t next = 0;
  for (const auto& [region, node] : regions) group_of[node] = next++;
}
