// The scalar spec of the two served CAM entries, one query column at a time.
// It has no GoogleTest dependency: the kernel, bank and non-ideality suites
// (through cam_spec.hpp) and bench_kernels' "scalar" side run this one copy.
//
// Each PECAN mode has one scalar spec and one blocked entry that serving
// calls:
//   PECAN-D (L1 array):  search() + accumulate() per query
//                        == CamArray::search_accumulate_block per tile;
//   PECAN-A (dot array): similarity_scores() + softmax_column() +
//                        weighted_accumulate() per query
//                        == CamArray::similarity_softmax_accumulate_block.
// The Int8 and Binary operating points have independent references
// written against the documented code grids (quantized_search,
// int8_reference_scores), not against the kernels' packed layouts.
// spec_columns() is the per-query loop over all of them.
//
// The spec reads only the public words(), matchline_noise() and table(),
// counts into the caller's OpCounter, and hands each query's winner back
// instead of writing the array's usage histogram.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cam/cam_array.hpp"
#include "cam/lut.hpp"
#include "cam/op_counter.hpp"

namespace pecan::camspec {

/// Packs a [d, lb] tile of im2col columns into contiguous dim-major storage:
/// out[i * lb + l] = group_cols[i * len + l0 + l], where group_cols points at
/// a group's first row of a [*, len] column matrix. This is the query tile
/// the blocked CAM entries consume, and im2col + pack_cols_tile is the
/// two-pass definition of the fused nn::im2col_tile gather.
inline void pack_cols_tile(const float* group_cols, std::int64_t len, std::int64_t d,
                           std::int64_t l0, std::int64_t lb, float* out) {
  for (std::int64_t i = 0; i < d; ++i) {
    const float* src = group_cols + i * len + l0;
    std::copy(src, src + lb, out + i * lb);
  }
}

/// PECAN-D scalar best match: argmin over words m of ||q - w_m||_1, plus
/// word m's match-line offset when noise is on (added after the word's full
/// accumulation, where the blocked kernel adds it), lowest index on ties.
/// The query is d floats `stride` apart (a column of an im2col matrix).
/// Counts one search and 2*p*d adds. Throws std::invalid_argument on a
/// DotProduct array.
inline std::int64_t search(const cam::CamArray& array, const float* query, std::int64_t stride,
                           cam::OpCounter& counter) {
  if (array.metric() != cam::SearchMetric::L1BestMatch) {
    throw std::invalid_argument("camspec::search: best-match search is L1-only");
  }
  const std::int64_t p = array.word_count(), d = array.word_dim();
  const float* words = array.words().data();
  const float* nz = array.matchline_noise().empty() ? nullptr : array.matchline_noise().data();
  std::int64_t best = 0;
  float best_dist = std::numeric_limits<float>::max();
  for (std::int64_t m = 0; m < p; ++m) {
    const float* w = words + m * d;
    float dist = 0.f;
    for (std::int64_t i = 0; i < d; ++i) dist += std::fabs(query[i * stride] - w[i]);
    if (nz) dist += nz[m];
    if (dist < best_dist) {
      best_dist = dist;
      best = m;
    }
  }
  // Match-line arithmetic: per word, d subtractions + d accumulations.
  counter.cam_searches.fetch_add(1, std::memory_order_relaxed);
  counter.adds.fetch_add(static_cast<std::uint64_t>(2 * p * d), std::memory_order_relaxed);
  return best;
}

/// PECAN-A scalar read of ALL match lines: scores[m] = <w_m, q> plus word
/// m's match-line offset. Counts one search, p*d adds and p*d muls.
inline void similarity_scores(const cam::CamArray& array, const float* query, std::int64_t stride,
                              float* scores, cam::OpCounter& counter) {
  const std::int64_t p = array.word_count(), d = array.word_dim();
  const float* words = array.words().data();
  const float* nz = array.matchline_noise().empty() ? nullptr : array.matchline_noise().data();
  for (std::int64_t m = 0; m < p; ++m) {
    const float* w = words + m * d;
    float score = 0.f;
    for (std::int64_t i = 0; i < d; ++i) score += query[i * stride] * w[i];
    if (nz) score += nz[m];
    scores[m] = score;
  }
  counter.cam_searches.fetch_add(1, std::memory_order_relaxed);
  counter.adds.fetch_add(static_cast<std::uint64_t>(p * d), std::memory_order_relaxed);
  counter.muls.fetch_add(static_cast<std::uint64_t>(p * d), std::memory_order_relaxed);
}

/// PECAN-D LUT accumulate: out[c * out_stride] += table[c, k] for every
/// output channel c (cout adds, one LUT read).
inline void accumulate(const cam::LutMemory& lut, std::int64_t k, float* out,
                       std::int64_t out_stride, cam::OpCounter& counter) {
  const std::int64_t cout = lut.cout(), p = lut.entries();
  if (k < 0 || k >= p) throw std::out_of_range("camspec::accumulate: entry out of range");
  const float* col = lut.table().data() + k;
  for (std::int64_t c = 0; c < cout; ++c) out[c * out_stride] += col[c * p];
  counter.adds.fetch_add(static_cast<std::uint64_t>(cout), std::memory_order_relaxed);
  counter.lut_reads.fetch_add(1, std::memory_order_relaxed);
}

/// PECAN-A LUT weighted accumulate: out[c * out_stride] += sum over m of
/// weights[m] * table[c, m], m in order (p*cout muls and adds, one LUT read).
inline void weighted_accumulate(const cam::LutMemory& lut, const float* weights, float* out,
                                std::int64_t out_stride, cam::OpCounter& counter) {
  const std::int64_t cout = lut.cout(), p = lut.entries();
  for (std::int64_t c = 0; c < cout; ++c) {
    const float* row = lut.table().data() + c * p;
    float acc = 0.f;
    for (std::int64_t m = 0; m < p; ++m) acc += weights[m] * row[m];
    out[c * out_stride] += acc;
  }
  counter.adds.fetch_add(static_cast<std::uint64_t>(cout * p), std::memory_order_relaxed);
  counter.muls.fetch_add(static_cast<std::uint64_t>(cout * p), std::memory_order_relaxed);
  counter.lut_reads.fetch_add(1, std::memory_order_relaxed);
}

/// Softmax of one query's p match-line scores, in place, with the exact op
/// order of the blocked A entry (float exp, double denominator, one float
/// normalize multiply). Returns the pre-softmax argmax, the word the A entry
/// records in the usage histogram.
inline std::int64_t softmax_column(float* scores, std::int64_t p, float temperature) {
  float mx = scores[0];
  std::int64_t best = 0;
  for (std::int64_t m = 1; m < p; ++m) {
    if (scores[m] > mx) {
      mx = scores[m];
      best = m;
    }
  }
  double denom = 0;
  for (std::int64_t m = 0; m < p; ++m) {
    scores[m] = std::exp((scores[m] - mx) / temperature);
    denom += scores[m];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::int64_t m = 0; m < p; ++m) scores[m] *= inv;
  return best;
}

/// Quantized L1 best match of one query (d floats `stride` apart) on the
/// documented code grids: Int8 sums |q - w| over affine uint8 codes, Binary
/// counts differing threshold-sign bits. Lowest index on ties, like search().
inline std::int64_t quantized_search(const cam::CamArray& array, const float* query,
                                     std::int64_t stride, cam::CamPrecision precision) {
  const std::int64_t d = array.word_dim(), p = array.word_count();
  const float* words = array.words().data();
  std::int64_t best_m = 0;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  if (precision == cam::CamPrecision::Binary) {
    const std::vector<float>& thresh = array.binary_thresholds();
    for (std::int64_t m = 0; m < p; ++m) {
      std::int64_t ham = 0;
      for (std::int64_t i = 0; i < d; ++i) {
        const bool qs = query[i * stride] >= thresh[static_cast<std::size_t>(i)];
        const bool ws = words[m * d + i] >= thresh[static_cast<std::size_t>(i)];
        ham += qs != ws;
      }
      if (ham < best) {
        best = ham;
        best_m = m;
      }
    }
    return best_m;
  }
  const cam::AffineQuant& qp = array.qparams();
  std::vector<std::int32_t> q(static_cast<std::size_t>(d));
  for (std::int64_t i = 0; i < d; ++i) {
    q[static_cast<std::size_t>(i)] = cam::affine_quantize(query[i * stride], qp);
  }
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
  return best_m;
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

/// The spec of the array's mode at `precision` over the len query columns
/// of `cols` (component i of query l at cols[i * len + l]): each query's
/// search, then its LUT accumulate into column l of the [cout, len] `out`.
/// Ops go into `counter`; each query's winner (for PECAN-A the pre-softmax
/// argmax) adds one to `usage` ([p]). A quantized search charges the op
/// mix its match line is defined to cost: 2*p*d int8 adds for Int8 L1,
/// p*ceil(d/64) XOR+popcounts for Binary, p*d int8 adds and muls for the
/// Int8 dot read. Binary has no dot read and throws, like the blocked entry.
inline void spec_columns(const cam::CamArray& array, const cam::LutMemory& lut, const float* cols,
                         std::int64_t len, float temperature, cam::CamPrecision precision,
                         float* out, cam::OpCounter& counter, std::vector<std::uint64_t>& usage) {
  const std::int64_t p = array.word_count(), d = array.word_dim();
  const bool l1 = array.metric() == cam::SearchMetric::L1BestMatch;
  if (!l1 && precision == cam::CamPrecision::Binary) {
    throw std::invalid_argument("camspec::spec_columns: the sign plane has no dot read");
  }
  const auto charge = [&](std::atomic<std::uint64_t> cam::OpCounter::* field, std::int64_t n) {
    (counter.*field).fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
  };
  std::vector<float> scores(static_cast<std::size_t>(p));
  for (std::int64_t l = 0; l < len; ++l) {
    const float* query = cols + l;
    std::int64_t hit = 0;
    if (l1) {
      if (precision == cam::CamPrecision::Float32) {
        hit = search(array, query, len, counter);
      } else {
        hit = quantized_search(array, query, len, precision);
        charge(&cam::OpCounter::cam_searches, 1);
        if (precision == cam::CamPrecision::Int8) {
          charge(&cam::OpCounter::adds_q, 2 * p * d);
        } else {
          charge(&cam::OpCounter::xor_popcounts, p * ((d + 63) / 64));
        }
      }
      accumulate(lut, hit, out + l, len, counter);
    } else {
      if (precision == cam::CamPrecision::Float32) {
        similarity_scores(array, query, len, scores.data(), counter);
      } else {
        int8_reference_scores(array, query, len, scores.data());
        charge(&cam::OpCounter::cam_searches, 1);
        charge(&cam::OpCounter::adds_q, p * d);
        charge(&cam::OpCounter::muls_q, p * d);
      }
      hit = softmax_column(scores.data(), p, temperature);
      weighted_accumulate(lut, scores.data(), out + l, len, counter);
    }
    ++usage[static_cast<std::size_t>(hit)];
  }
}

}  // namespace pecan::camspec
