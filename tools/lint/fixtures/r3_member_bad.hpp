// R3 golden fixture (bad), header half: a linker class whose intern table is
// a member, declared here and iterated in r3_member_bad.cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

class ClassTable {
 public:
  void relink(std::vector<std::uint32_t>& class_of) const;

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> classes_;
};
