// R3 golden fixture (bad): a linker method iterating its class's member
// intern table — declared only in the sibling header — in hash order.
#include "r3_member_bad.hpp"

void ClassTable::relink(std::vector<std::uint32_t>& class_of) const {
  std::uint32_t next = 0;
  for (const auto& [payload, id] : classes_) class_of[id] = next++;
}
