// Scalar specs and blocked runners for the two CAM entries, shared by the
// kernel, bank and non-ideality suites.
//
// Each PECAN mode has one scalar reference and one blocked entry:
//   PECAN-D (L1 array):  search() + LutMemory::accumulate() per query
//                        == CamArray::search_accumulate_block per tile;
//   PECAN-A (dot array): similarity_scores() + softmax +
//                        LutMemory::weighted_accumulate() per query
//                        == CamArray::similarity_softmax_accumulate_block.
// run_spec() and run_blocked() drive one side over the same [d, len] query
// columns and return everything the contract pins bitwise: the output
// tile, the OpCounter totals and the usage histogram (the blocked side
// charges one CamTally and flushes it once, as a serving chunk does).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cam/cam_array.hpp"
#include "cam/lut.hpp"
#include "nn/im2col.hpp"
#include "tensor/tensor.hpp"

namespace pecan::camspec {

struct CounterSnapshot {
  std::uint64_t adds, muls, searches, lut_reads, adds_q, muls_q, xors;
  explicit CounterSnapshot(const cam::OpCounter& c)
      : adds(c.adds.load()), muls(c.muls.load()), searches(c.cam_searches.load()),
        lut_reads(c.lut_reads.load()), adds_q(c.adds_q.load()), muls_q(c.muls_q.load()),
        xors(c.xor_popcounts.load()) {}
  bool operator==(const CounterSnapshot& o) const {
    return adds == o.adds && muls == o.muls && searches == o.searches &&
           lut_reads == o.lut_reads && adds_q == o.adds_q && muls_q == o.muls_q && xors == o.xors;
  }
};

/// Softmax of score column l of a [p, lb] tile, in place, with the exact op
/// order of the blocked A entry (float exp, double denominator, one float
/// normalize multiply). Returns the pre-softmax argmax, the word the A entry
/// records in the usage histogram.
inline std::int64_t softmax_column(float* scores, std::int64_t p, std::int64_t lb, std::int64_t l,
                                   float temperature) {
  float mx = scores[l];
  std::int64_t best = 0;
  for (std::int64_t m = 1; m < p; ++m) {
    const float v = scores[m * lb + l];
    if (v > mx) {
      mx = v;
      best = m;
    }
  }
  double denom = 0;
  for (std::int64_t m = 0; m < p; ++m) {
    float& v = scores[m * lb + l];
    v = std::exp((v - mx) / temperature);
    denom += v;
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::int64_t m = 0; m < p; ++m) scores[m * lb + l] *= inv;
  return best;
}

struct Outcome {
  std::vector<float> out;  ///< [cout, len] output tile
  CounterSnapshot counter;
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
/// output starts at 0.5 so accumulation (not overwrite) is pinned too; the
/// usage histogram is reset first.
inline Outcome run_spec(const cam::CamArray& array, const cam::LutMemory& lut, const Tensor& cols,
                        float temperature) {
  array.reset_usage();
  const std::int64_t p = array.word_count(), len = cols.dim(1);
  cam::OpCounter counter;
  std::vector<float> out(static_cast<std::size_t>(lut.cout() * len), 0.5f);
  std::vector<float> scores(static_cast<std::size_t>(p));
  for (std::int64_t l = 0; l < len; ++l) {
    if (array.metric() == cam::SearchMetric::L1BestMatch) {
      lut.accumulate(array.search(cols.data() + l, len, counter), out.data() + l, len, counter);
    } else {
      array.similarity_scores(cols.data() + l, len, scores.data(), counter);
      array.record_usage(softmax_column(scores.data(), p, 1, 0, temperature));
      lut.weighted_accumulate(scores.data(), out.data() + l, len, counter);
    }
  }
  return {out, CounterSnapshot(counter), array.usage()};
}

/// The blocked entry of the array's mode over the tile grid the conv layers
/// use (tiles cut with nn::pack_cols_tile), with the same output start and
/// usage reset as run_spec.
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
    nn::pack_cols_tile(cols.data(), len, d, l0, lb, qtile.data());
    if (array.metric() == cam::SearchMetric::L1BestMatch) {
      array.search_accumulate_block(qtile.data(), lb, lut, out.data() + l0, len, tally, precision);
    } else {
      array.similarity_softmax_accumulate_block(qtile.data(), lb, temperature, lut, scores.data(),
                                                out.data() + l0, len, tally, precision);
    }
  }
  array.flush(tally, counter);
  return {out, CounterSnapshot(counter), array.usage()};
}

/// Independent scalar reference for the quantized L1 planes, written against
/// the documented code grids (affine uint8 codes / sign bits), not the
/// kernels' packed layouts: the winner of each of the [d, len] query columns,
/// with the same lowest-index tie-break.
inline std::vector<std::int64_t> quantized_reference_hits(const cam::CamArray& array,
                                                          const Tensor& cols,
                                                          cam::CamPrecision precision) {
  const std::int64_t d = array.word_dim(), p = array.word_count(), len = cols.dim(1);
  const float* words = array.words().data();
  std::vector<std::int64_t> hits(static_cast<std::size_t>(len));
  for (std::int64_t l = 0; l < len; ++l) {
    std::int64_t best_m = 0;
    if (precision == cam::CamPrecision::Binary) {
      const std::vector<float>& thresh = array.binary_thresholds();
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (std::int64_t m = 0; m < p; ++m) {
        std::int64_t ham = 0;
        for (std::int64_t i = 0; i < d; ++i) {
          const bool qs = cols[i * len + l] >= thresh[static_cast<std::size_t>(i)];
          const bool ws = words[m * d + i] >= thresh[static_cast<std::size_t>(i)];
          ham += qs != ws;
        }
        if (ham < best) {
          best = ham;
          best_m = m;
        }
      }
    } else {
      const cam::AffineQuant& qp = array.qparams();
      std::vector<std::int32_t> q(static_cast<std::size_t>(d));
      for (std::int64_t i = 0; i < d; ++i) {
        q[static_cast<std::size_t>(i)] = cam::affine_quantize(cols[i * len + l], qp);
      }
      std::int64_t best = std::numeric_limits<std::int64_t>::max();
      for (std::int64_t m = 0; m < p; ++m) {
        std::int64_t dist = 0;
        for (std::int64_t i = 0; i < d; ++i) {
          const std::int32_t w = cam::affine_quantize(words[m * d + i], qp);
          dist += std::abs(q[static_cast<std::size_t>(i)] - w);
        }
        if (dist < best) {
          best = dist;
          best_m = m;
        }
      }
    }
    hits[static_cast<std::size_t>(l)] = best_m;
  }
  return hits;
}

/// Exact-integer dequantized Int8 crossbar read of one query (d components
/// `stride` apart): scores[m] = s^2 * (dot - zp*wsum[m] - zp*qsum + d*zp^2).
inline void int8_reference_scores(const cam::CamArray& array, const float* query,
                                  std::int64_t stride, float* scores) {
  const std::int64_t d = array.word_dim(), p = array.word_count();
  const cam::AffineQuant& qp = array.qparams();
  const float s2 = qp.scale * qp.scale;
  const std::int64_t zp = qp.zero_point;
  std::vector<std::int64_t> q(static_cast<std::size_t>(d));
  std::int64_t qsum = 0;
  for (std::int64_t i = 0; i < d; ++i) {
    q[static_cast<std::size_t>(i)] = cam::affine_quantize(query[i * stride], qp);
    qsum += q[static_cast<std::size_t>(i)];
  }
  for (std::int64_t m = 0; m < p; ++m) {
    std::int64_t dot = 0, wsum = 0;
    for (std::int64_t i = 0; i < d; ++i) {
      const std::int64_t w = cam::affine_quantize(array.words()[m * d + i], qp);
      dot += q[static_cast<std::size_t>(i)] * w;
      wsum += w;
    }
    const std::int64_t integer = dot - zp * wsum - zp * qsum + d * zp * zp;
    scores[m] = s2 * static_cast<float>(static_cast<std::int32_t>(integer));
  }
}

/// Raw best-match winners of an L1 array through the D entry: a [1, p] LUT
/// whose entry m holds float(m), accumulated into a zeroed row, makes
/// out[l] == hit[l] exactly. The counter sees the scan plus one LUT add and
/// one LUT read per query.
inline std::vector<std::int64_t> blocked_hits(const cam::CamArray& array, const Tensor& cols,
                                              cam::CamPrecision precision,
                                              cam::OpCounter& counter) {
  const std::int64_t d = array.word_dim(), p = array.word_count(), len = cols.dim(1);
  Tensor index_row({1, p});
  for (std::int64_t m = 0; m < p; ++m) index_row[m] = static_cast<float>(m);
  const cam::LutMemory lut(std::move(index_row));
  std::vector<float> out(static_cast<std::size_t>(len), 0.f);
  std::vector<float> qtile(static_cast<std::size_t>(d * cam::kCamTileMax));
  cam::CamTally tally(p);
  for (std::int64_t l0 = 0; l0 < len; l0 += cam::kCamTileMax) {
    const std::int64_t lb = std::min<std::int64_t>(cam::kCamTileMax, len - l0);
    nn::pack_cols_tile(cols.data(), len, d, l0, lb, qtile.data());
    array.search_accumulate_block(qtile.data(), lb, lut, out.data() + l0, len, tally, precision);
  }
  array.flush(tally, counter);
  return std::vector<std::int64_t>(out.begin(), out.end());
}

}  // namespace pecan::camspec
