#include "timeseries/resample.hpp"

#include "common/check.hpp"

namespace shep {

void DownsampleMeanInto(std::span<const double> in, int factor,
                        std::vector<double>& out) {
  SHEP_REQUIRE(factor >= 1, "downsample factor must be >= 1");
  SHEP_REQUIRE(in.size() % static_cast<std::size_t>(factor) == 0,
               "factor must divide the sample count");
  out.resize(in.size() / static_cast<std::size_t>(factor));
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = 0.0;
    for (int k = 0; k < factor; ++k) {
      acc += in[i * static_cast<std::size_t>(factor) +
                static_cast<std::size_t>(k)];
    }
    out[i] = acc / factor;
  }
}

}  // namespace shep
