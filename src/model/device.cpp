#include "model/device.hpp"

#include <algorithm>

namespace spmap {

double amdahl_speedup(double p, double n) {
  p = std::clamp(p, 0.0, 1.0);
  n = std::max(n, 1.0);
  return 1.0 / ((1.0 - p) + p / n);
}

}  // namespace spmap
