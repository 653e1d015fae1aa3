// A std::atomic that moves by value. Indexes keep counts that searches
// read beside one inserting thread, yet are move-assigned whole when a
// snapshot loads (VectorIndex::Load builds a fresh object, then moves it
// into place), which std::atomic forbids. The move itself is not atomic: it
// runs only while no other thread can see either object.
#pragma once

#include <atomic>

namespace vecdb {

template <class T>
class MovableAtomic {
 public:
  MovableAtomic(T value = T{}) : value_(value) {}  // NOLINT
  MovableAtomic(MovableAtomic&& other) noexcept : value_(other.load()) {}
  MovableAtomic& operator=(MovableAtomic&& other) noexcept {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  /// Release store / acquire load: a reader that sees a count also sees
  /// the writes made before it was published.
  MovableAtomic& operator=(T value) {
    value_.store(value, std::memory_order_release);
    return *this;
  }
  MovableAtomic& operator+=(T delta) {
    value_.fetch_add(delta, std::memory_order_acq_rel);
    return *this;
  }
  T load() const { return value_.load(std::memory_order_acquire); }
  operator T() const { return load(); }  // NOLINT

 private:
  std::atomic<T> value_;
};

}  // namespace vecdb
