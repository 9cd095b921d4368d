#include "comm/shared_randomness.h"

namespace tft {

std::vector<std::uint32_t> SharedRandomness::sample_vertices(SharedTag tag, std::uint64_t n,
                                                             double p) const {
  std::vector<std::uint32_t> out;
  if (!(p > 0.0)) return out;  // the coin's own rule: NaN samples nothing
  out.reserve(static_cast<std::size_t>(p * static_cast<double>(n)) + 16);
  const SharedCoin in_sample = coin(tag, p);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (in_sample(v)) out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

}  // namespace tft
