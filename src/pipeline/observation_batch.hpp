// Reusable contiguous observation buffer — the unit of work between
// pipeline stages.
//
// Observations are stored contiguously (SoA-friendly: consumers stream
// the hot fields — type, prefix, origin path — linearly through cache),
// and clear() resets the logical size WITHOUT destroying elements: the
// vector capacity and each recycled Observation's heap buffers (AS-path
// and community vectors) survive, so a steady-state loop that decodes
// into recycled slots performs no heap allocations once warmed up. That
// is the zero-allocation contract the MRT converter and the journal
// reader rely on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "feeds/observation.hpp"

namespace artemis::pipeline {

class ObservationBatch {
 public:
  /// Grows the logical size by one and returns the slot — a recycled
  /// element when one is available, a fresh default-constructed one
  /// otherwise. Fill it by assignment (e.g. ring.try_pop(slot)).
  feeds::Observation& emplace_back() {
    if (size_ == storage_.size()) storage_.emplace_back();
    return storage_[size_++];
  }

  void push_back(feeds::Observation obs) { emplace_back() = std::move(obs); }

  /// Undoes the last emplace_back (used when a ring pop comes up empty).
  void pop_back() { --size_; }

  /// Logical reset; elements and capacity are retained for reuse.
  void clear() { size_ = 0; }

  void reserve(std::size_t n) { storage_.reserve(n); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const feeds::Observation& operator[](std::size_t i) const { return storage_[i]; }
  feeds::Observation& operator[](std::size_t i) { return storage_[i]; }

  std::span<const feeds::Observation> view() const {
    return {storage_.data(), size_};
  }

  const feeds::Observation* begin() const { return storage_.data(); }
  const feeds::Observation* end() const { return storage_.data() + size_; }

 private:
  std::vector<feeds::Observation> storage_;
  std::size_t size_ = 0;
};

}  // namespace artemis::pipeline
