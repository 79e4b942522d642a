#include "core/ewma.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace shep {

Ewma::Ewma(double weight, int slots_per_day)
    : weight_(weight), slots_per_day_(slots_per_day) {
  SHEP_REQUIRE(weight_ >= 0.0 && weight_ <= 1.0,
               "EWMA weight must be in [0,1]");
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  slot_ewma_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  seeded_.assign(static_cast<std::size_t>(slots_per_day_), false);
}

void Ewma::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  if (!seeded_[next_slot_]) {
    slot_ewma_[next_slot_] = boundary_sample;
    seeded_[next_slot_] = true;
  } else {
    slot_ewma_[next_slot_] = weight_ * boundary_sample +
                             (1.0 - weight_) * slot_ewma_[next_slot_];
  }
  last_sample_ = boundary_sample;
  has_sample_ = true;
  next_slot_ = (next_slot_ + 1) % static_cast<std::size_t>(slots_per_day_);
}

double Ewma::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  if (!seeded_[next_slot_]) return last_sample_;  // first day: persistence
  return slot_ewma_[next_slot_];
}


void Ewma::Reset() {
  std::fill(slot_ewma_.begin(), slot_ewma_.end(), 0.0);
  std::fill(seeded_.begin(), seeded_.end(), false);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
}

std::string Ewma::Name() const {
  std::ostringstream os;
  os << "EWMA(w=" << weight_ << ")";
  return os.str();
}

}  // namespace shep
