// Fixed-capacity power-of-two ring buffer (SPSC-style FIFO semantics, but
// single-threaded like everything in the simulator). Replaces std::deque on
// the pipeline's per-packet hot paths: a deque push touches its block map
// and allocates a fresh block every few hundred entries, while a ring push
// is one masked store on memory that never moves after construction —
// matching how real NP Tx/Rx rings are laid out in NIC SRAM.
//
// Slots are raw storage: construction writes none of them, and push_back
// writes a slot before front() or operator[] can read it. So T must be
// trivially copyable, and a popped slot needs no clearing.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace flowvalve::sim {

/// Storage for one T that construction leaves unwritten. Assigning `value`
/// begins its lifetime; read it only after that. For arrays whose slots
/// are always written before they are read.
template <class T>
union RawSlot {
  static_assert(std::is_trivially_copyable_v<T>,
                "a raw slot is assigned, never constructed or destroyed");
  RawSlot() {}
  T value;
};

template <class T>
class FixedRing {
 public:
  FixedRing() = default;
  explicit FixedRing(std::size_t min_capacity) { reset_capacity(min_capacity); }

  FixedRing(FixedRing&&) noexcept = default;
  FixedRing& operator=(FixedRing&&) noexcept = default;
  FixedRing(const FixedRing&) = delete;
  FixedRing& operator=(const FixedRing&) = delete;

  /// (Re)allocate storage: the next power of two >= max(1, min_capacity).
  /// Drops any current contents.
  void reset_capacity(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    buf_ = std::make_unique<RawSlot<T>[]>(cap);
    mask_ = cap - 1;
    head_ = tail_ = 0;
  }

  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  std::size_t capacity() const { return mask_ + 1; }

  void push_back(const T& value) {
    assert(!full() && "FixedRing overflow");
    buf_[tail_ & mask_].value = value;
    ++tail_;
  }

  T& front() { return buf_[head_ & mask_].value; }
  const T& front() const { return buf_[head_ & mask_].value; }

  void pop_front() {
    assert(!empty() && "FixedRing underflow");
    ++head_;
  }

  /// FIFO-order access: operator[](0) is the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_].value; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_].value; }

 private:
  std::unique_ptr<RawSlot<T>[]> buf_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;  // monotonic; masked on access
  std::uint64_t tail_ = 0;
};

}  // namespace flowvalve::sim
