#include "nn/infer_context.hpp"

namespace pecan::nn {

std::int64_t ScratchArena::resident_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& slot : float_slots_) bytes += slot.capacity * static_cast<std::int64_t>(sizeof(float));
  for (const auto& slot : int_slots_) bytes += slot.capacity * static_cast<std::int64_t>(sizeof(std::int64_t));
  return bytes;
}

}  // namespace pecan::nn
