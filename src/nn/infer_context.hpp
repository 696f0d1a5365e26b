// InferContext — per-call activation state for the stateless inference path.
//
// Module::infer(input, ctx) is const: a layer may not touch its members for
// per-call scratch (im2col buffers, matching weights, argmax indices), so
// any number of in-flight executions can share one immutable network. All
// scratch instead comes from the context's ScratchArena.
//
// The arena is slot-based rather than a bump allocator: infer() walks the
// same layer sequence with the same shapes call after call, so allocation
// requests repeat in an identical order. Each request claims the next slot,
// reusing its buffer when it is already big enough, so after the first call
// at a given batch geometry the scratch of the three float layers that draw
// from the arena (Conv2d, AdderConv2d, PecanConv2d) is recycled, not
// reallocated. That is not an allocation-free forward: every layer still
// allocates its output tensor, and CamConv2d allocates its tile buffers and
// tallies per parallel chunk. reset() only rewinds the slot cursor.
//
// Threading contract: one InferContext belongs to exactly one in-flight
// execution at a time (the Engine keeps a free-list of them, one per
// concurrent worker). Allocation happens on the execution's calling thread
// only; kernels may hand the *allocated* buffers to parallel_for lanes, but
// never the arena itself.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace pecan::nn {

class ScratchArena {
 public:
  /// Next slot as `count` floats (zero-filled only on fresh allocation —
  /// callers must not rely on contents). Pointer stays valid until reset().
  float* floats(std::int64_t count) { return alloc(float_slots_, count); }

  /// Next slot as `count` int64 indices (hard assignments).
  std::int64_t* ints(std::int64_t count) { return alloc(int_slots_, count); }

  /// Rewinds the slot cursors; capacity is retained for the next call.
  void reset() {
    float_cursor_ = 0;
    int_cursor_ = 0;
  }

  /// Resident scratch in bytes (capacity across all slots) — for gauges.
  std::int64_t resident_bytes() const;

 private:
  template <typename T>
  struct Slot {
    std::unique_ptr<T[]> data;
    std::int64_t capacity = 0;
  };

  template <typename T>
  T* alloc(std::vector<Slot<T>>& slots, std::int64_t count);

  std::vector<Slot<float>> float_slots_;
  std::vector<Slot<std::int64_t>> int_slots_;
  std::size_t float_cursor_ = 0;
  std::size_t int_cursor_ = 0;

  template <typename T>
  std::size_t& cursor(std::vector<Slot<T>>&);
};

template <>
inline std::size_t& ScratchArena::cursor(std::vector<Slot<float>>&) {
  return float_cursor_;
}
template <>
inline std::size_t& ScratchArena::cursor(std::vector<Slot<std::int64_t>>&) {
  return int_cursor_;
}

template <typename T>
T* ScratchArena::alloc(std::vector<Slot<T>>& slots, std::int64_t count) {
  std::size_t& cur = cursor(slots);
  if (count < 0) count = 0;
  if (cur == slots.size()) slots.emplace_back();
  Slot<T>& slot = slots[cur++];
  if (slot.capacity < count) {
    slot.data = std::make_unique<T[]>(static_cast<std::size_t>(count));
    slot.capacity = count;
  }
  return slot.data.get();
}

/// Everything one in-flight inference needs that is not the (immutable)
/// network itself. Owned by the Engine's context pool; reset per call.
struct InferContext {
  ScratchArena arena;

  void reset() { arena.reset(); }
};

}  // namespace pecan::nn
