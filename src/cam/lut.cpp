#include "cam/lut.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cam/cam_array.hpp"  // kCamTileMax

namespace pecan::cam {

LutMemory::LutMemory(Tensor table) : table_(std::move(table)) {
  if (table_.ndim() != 2) throw std::invalid_argument("LutMemory: table must be [cout, p]");
  cout_ = table_.dim(0);
  p_ = table_.dim(1);
}

void LutMemory::weighted_accumulate_block(const float* weights, std::int64_t lb, float* out,
                                          std::int64_t out_stride, ops::OpTotals& tally) const {
  if (lb <= 0) return;
  if (lb > kCamTileMax) throw std::invalid_argument("LutMemory: tile larger than kCamTileMax");
  // A [cout, lb] += [cout, p] x [p, lb] micro-product: the table row and the
  // weight rows stream unit-stride, and the register/stack accumulator keeps
  // the per-element m-order serial (bitwise contract).
  float acc[kCamTileMax];
  for (std::int64_t c = 0; c < cout_; ++c) {
    const float* row = table_.data() + c * p_;
    std::fill(acc, acc + lb, 0.f);
    for (std::int64_t m = 0; m < p_; ++m) {
      const float t = row[m];
      const float* wrow = weights + m * lb;
      for (std::int64_t l = 0; l < lb; ++l) acc[l] += wrow[l] * t;
    }
    float* o = out + c * out_stride;
    for (std::int64_t l = 0; l < lb; ++l) o[l] += acc[l];
  }
  const auto wacc = static_cast<std::uint64_t>(cout_ * p_ * lb);
  tally.adds += wacc;
  tally.muls += wacc;
  tally.lut_reads += static_cast<std::uint64_t>(lb);
}

void LutMemory::keep_entries(const std::vector<std::int64_t>& kept) {
  Tensor compact({cout_, static_cast<std::int64_t>(kept.size())});
  for (std::int64_t c = 0; c < cout_; ++c) {
    for (std::size_t i = 0; i < kept.size(); ++i) {
      compact[c * static_cast<std::int64_t>(kept.size()) + static_cast<std::int64_t>(i)] =
          table_[c * p_ + kept[i]];
    }
  }
  table_ = std::move(compact);
  p_ = table_.dim(1);
}

}  // namespace pecan::cam
