// fixed_ring.hpp — a fixed-capacity window over the most recent values.
//
// The predictors keep "the last K" of something (WCMA's elapsed slots for
// Φ, AR's ratio lags).  FixedRing sizes its storage once, at construction;
// push_back overwrites the oldest entry when full and clear() only resets
// the cursors, so neither ever allocates.  Indexing is oldest-first:
// ring[0] is the oldest retained value, ring[size() - 1] the newest.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace shep {

template <class T>
class FixedRing {
 public:
  /// \param capacity  how many of the newest values are retained (>= 1).
  explicit FixedRing(std::size_t capacity) : slots_(capacity) {
    SHEP_REQUIRE(capacity >= 1, "ring capacity must be at least one");
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends `value`, evicting the oldest value when the ring is full.
  void push_back(const T& value) {
    if (size_ < slots_.size()) {
      slots_[Wrap(head_ + size_)] = value;
      ++size_;
    } else {
      slots_[head_] = value;
      head_ = Wrap(head_ + 1);
    }
  }

  /// The i-th oldest retained value; requires i < size().
  const T& operator[](std::size_t i) const {
    SHEP_DCHECK(i < size_, "ring index out of range");
    return slots_[Wrap(head_ + i)];
  }

  /// Forgets every value; the storage is kept.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Maps a position in [0, 2·capacity) onto the storage.
  std::size_t Wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;  ///< storage index of the oldest value.
  std::size_t size_ = 0;
};

}  // namespace shep
