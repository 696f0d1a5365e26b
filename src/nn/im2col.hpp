// im2col / col2im — the unfolding step of Fig. 1(b).
//
// im2col turns one [cin, H, W] image into the matrix X of the paper:
// each output location becomes a column of length cin*k^2, so a convolution
// is the matrix product F * X. Both Conv2d and the PECAN layers (which
// group the rows of X into D subvector groups) share this code; the CAM
// layers gather their query tiles straight from the image with im2col_tile.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace pecan::nn {

struct Conv2dGeometry {
  std::int64_t cin = 0;
  std::int64_t hin = 0;
  std::int64_t win = 0;
  std::int64_t k = 0;        ///< square kernel
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t dilation = 1; ///< spacing between kernel taps (1 = dense)

  /// Input span covered by the (dilated) kernel along one axis.
  std::int64_t k_eff() const { return dilation * (k - 1) + 1; }
  std::int64_t hout() const { return (hin + 2 * pad - k_eff()) / stride + 1; }
  std::int64_t wout() const { return (win + 2 * pad - k_eff()) / stride + 1; }
  std::int64_t rows() const { return cin * k * k; }       ///< im2col rows
  std::int64_t cols() const { return hout() * wout(); }   ///< im2col columns
  void validate() const;
};

/// im: [cin, hin, win] contiguous. cols: [rows(), cols()] row-major,
/// cols[(c*k*k + ki*k + kj) * ncols + out] = im[c, i, j] (0 for padding).
void im2col(const float* im, const Conv2dGeometry& g, float* cols);

/// Scatter-accumulate the column gradient back into the image gradient.
/// im_grad must be pre-zeroed by the caller (it accumulates).
void col2im_accumulate(const float* cols, const Conv2dGeometry& g, float* im_grad);

/// Convenience wrappers on Tensors (single image, not batched).
Tensor im2col(const Tensor& image, const Conv2dGeometry& g);

/// Fused unfold -> tile pack: produces the dim-major [nrows, lb] query tile
/// the blocked CAM kernels consume DIRECTLY from the image, skipping the
/// full im2col `cols` materialization (the largest hot-path intermediate).
/// Bitwise-identical to im2col followed by a tile copy:
///   out[r * lb + t] == cols[(row0 + r) * g.cols() + (l0 + t)]
/// for r in [0, nrows), t in [0, lb). Row row0+r decomposes into its
/// (channel, ki, kj) kernel tap; each output row of the tile is gathered
/// with a stride-aware inner loop (contiguous copy at stride 1, strided
/// walk otherwise) with padding zero-filled outside the valid range.
void im2col_tile(const float* im, const Conv2dGeometry& g, std::int64_t row0,
                 std::int64_t nrows, std::int64_t l0, std::int64_t lb, float* out);

}  // namespace pecan::nn
