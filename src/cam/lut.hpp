// Lookup-table memory: the precomputed products of Algorithm 1, line 3.
//
// For group j, the table stores Y(j) = W1(j) * C1(j) in R^{cout x p}:
// column m is the contribution of prototype m to every output channel.
// At inference a CAM hit k fetches column k and accumulates it into the
// output (cout adds) — no multiplication (PECAN-D) or a p-wide weighted
// sum (PECAN-A). PECAN-D's column lookup is fused into
// CamArray::search_accumulate_block (the kernels' lut_accumulate, which
// holds a row of up to 64 entries in registers and looks the winners up
// without a gather); PECAN-A's weighted sum is weighted_accumulate_block
// below.
#pragma once

#include <cstdint>
#include <vector>

#include "ops/op_count.hpp"
#include "tensor/tensor.hpp"

namespace pecan::cam {

class LutMemory {
 public:
  /// table: [cout, p]. Built by the exporter from W and the codebook.
  explicit LutMemory(Tensor table);

  std::int64_t cout() const { return cout_; }
  std::int64_t entries() const { return p_; }
  const Tensor& table() const { return table_; }
  Tensor& table() { return table_; }

  /// Blocked PECAN-A accumulate: weights is [p, lb] (weights[m * lb + l] is
  /// the softmax weight of prototype m for query l); adds table * weights
  /// into the [cout, lb] output tile. Per output element the m-summation
  /// order matches the scalar spec's weighted accumulate, so results are
  /// bitwise-equal to lb scalar calls on the weight columns (the spec lives
  /// in tests/cam_reference.hpp). The ops go into the caller's plain
  /// `tally` (the calling CamArray's CamTally), which the array's flush()
  /// publishes.
  void weighted_accumulate_block(const float* weights, std::int64_t lb, float* out,
                                 std::int64_t out_stride, ops::OpTotals& tally) const;

  /// Keeps only the listed columns (paired with CamArray::prune_unused).
  void keep_entries(const std::vector<std::int64_t>& kept);

 private:
  Tensor table_;
  std::int64_t cout_, p_;
};

}  // namespace pecan::cam
