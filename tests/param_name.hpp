// Test-name fragments for value-parameterized suites.
//
// ctest names a parameterized case by gtest's print of its parameter, so
// each suite's PrintTo prints the parameter's values and the names read
// like `p64_g4_m8`, the same in every build (tests/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>

namespace pbw::test {

/// `v` printed with %g, '.' spelled 'p' (names keep to [A-Za-z0-9_]):
/// 0.25 -> "0p25", 16.0 -> "16".
inline std::string name_part(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  std::string s(buf);
  std::replace(s.begin(), s.end(), '.', 'p');
  return s;
}

}  // namespace pbw::test
