// Runners and checks over the scalar CAM spec (cam_reference.hpp), shared by
// the kernel, bank and non-ideality suites.
//
// run_spec() and run_blocked() drive the spec and the blocked entry of the
// array's mode over the same [d, len] query columns and return everything
// the contract pins bitwise: the output tile, the op totals and the usage
// histogram (the blocked side charges one CamTally and flushes it once, as
// a serving chunk does).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cam/cam_array.hpp"
#include "cam/lut.hpp"
#include "cam_reference.hpp"
#include "tensor/tensor.hpp"

namespace pecan::camspec {

struct Outcome {
  std::vector<float> out;  ///< [cout, len] output tile
  ops::OpTotals counter;
  std::vector<std::uint64_t> usage;
};

inline void expect_same(const Outcome& want, const Outcome& got, const std::string& what) {
  ASSERT_EQ(want.out.size(), got.out.size()) << what;
  EXPECT_EQ(std::memcmp(want.out.data(), got.out.data(), want.out.size() * sizeof(float)), 0)
      << "output tile differs: " << what;
  EXPECT_TRUE(want.counter == got.counter) << "counter drift: " << what;
  EXPECT_EQ(want.usage, got.usage) << "usage drift: " << what;
}

/// The scalar spec of the array's mode, one query column at a time. The
/// output starts at 0.5 so accumulation (not overwrite) is pinned too.
inline Outcome run_spec(const cam::CamArray& array, const cam::LutMemory& lut, const Tensor& cols,
                        float temperature,
                        cam::CamPrecision precision = cam::CamPrecision::Float32) {
  const std::int64_t len = cols.dim(1);
  cam::OpCounter counter;
  std::vector<float> out(static_cast<std::size_t>(lut.cout() * len), 0.5f);
  std::vector<std::uint64_t> usage(static_cast<std::size_t>(array.word_count()), 0);
  spec_columns(array, lut, cols.data(), len, temperature, precision, out.data(), counter, usage);
  return {out, counter.totals(), usage};
}

/// The blocked entry of the array's mode over the tile grid the conv layers
/// use (tiles cut with pack_cols_tile), with the same output start as
/// run_spec. The array's usage histogram is reset first.
inline Outcome run_blocked(const cam::CamArray& array, const cam::LutMemory& lut,
                           const Tensor& cols, float temperature,
                           cam::CamPrecision precision = cam::CamPrecision::Float32) {
  array.reset_usage();
  const std::int64_t d = array.word_dim(), p = array.word_count(), len = cols.dim(1);
  cam::OpCounter counter;
  cam::CamTally tally(p);
  std::vector<float> out(static_cast<std::size_t>(lut.cout() * len), 0.5f);
  std::vector<float> qtile(static_cast<std::size_t>(d * cam::kCamTileMax));
  std::vector<float> scores(static_cast<std::size_t>(p * cam::kCamTileMax));
  for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
    const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
    pack_cols_tile(cols.data(), len, d, l0, lb, qtile.data());
    if (array.metric() == cam::SearchMetric::L1BestMatch) {
      array.search_accumulate_block(qtile.data(), lb, lut, out.data() + l0, len, tally, precision);
    } else {
      array.similarity_softmax_accumulate_block(qtile.data(), lb, temperature, lut, scores.data(),
                                                out.data() + l0, len, tally, precision);
    }
  }
  array.flush(tally, counter);
  return {out, counter.totals(), array.usage()};
}

/// The [1, p] index LUT: entry m holds float(m), so accumulating a PECAN-D
/// winner into a row adds exactly its index (exact for p < 2^24).
inline cam::LutMemory index_lut(std::int64_t p) {
  Tensor index_row({1, p});
  for (std::int64_t m = 0; m < p; ++m) index_row[m] = static_cast<float>(m);
  return cam::LutMemory(std::move(index_row));
}

/// Raw best-match winners of an L1 array through the D entry: the index LUT
/// accumulated into a zeroed row makes out[l] == hit[l] exactly. The counter
/// sees the scan plus one LUT add and one LUT read per query.
inline std::vector<std::int64_t> blocked_hits(const cam::CamArray& array, const Tensor& cols,
                                              cam::CamPrecision precision,
                                              cam::OpCounter& counter) {
  const std::int64_t d = array.word_dim(), p = array.word_count(), len = cols.dim(1);
  const cam::LutMemory lut = index_lut(p);
  std::vector<float> out(static_cast<std::size_t>(len), 0.f);
  std::vector<float> qtile(static_cast<std::size_t>(d * cam::kCamTileMax));
  cam::CamTally tally(p);
  for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
    const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
    pack_cols_tile(cols.data(), len, d, l0, lb, qtile.data());
    array.search_accumulate_block(qtile.data(), lb, lut, out.data() + l0, len, tally, precision);
  }
  array.flush(tally, counter);
  return std::vector<std::int64_t>(out.begin(), out.end());
}

}  // namespace pecan::camspec
