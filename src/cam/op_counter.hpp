// Dynamic operation counter shared by all CAM layers of one network.
//
// Counts are charged at the arithmetic call sites of the simulated
// hardware (CAM search = the subtract/accumulate of the match lines;
// LUT accumulate = the adder tree behind the memory). The paper's
// convention is followed: only the two inference stages of Algorithm 1 are
// counted — softmax exponentials, ReLU/pool comparisons, bias adds, and
// residual adds are excluded, exactly as Tables 1-5 exclude them.
//
// Fields are relaxed atomics: many worker lanes publish into one counter at
// once, and op counts must stay exact (counters are the paper's headline
// metric, not a debug statistic). The blocked CAM entries never touch it
// per call: each lane tallies plain counts (cam::CamTally) and publishes
// them once per layer chunk (CamArray::flush), so every count of a layer
// is in the counter before that layer's infer() returns and a read between
// requests never sees a partial layer. Relaxed ordering suffices — counts
// are only read after joining.
#pragma once

#include <atomic>
#include <cstdint>

#include "ops/op_count.hpp"

namespace pecan::cam {

struct OpCounter {
  std::atomic<std::uint64_t> adds{0};
  std::atomic<std::uint64_t> muls{0};
  std::atomic<std::uint64_t> cam_searches{0};  ///< best-match queries issued
  std::atomic<std::uint64_t> lut_reads{0};     ///< rows fetched from lookup tables
  // Quantized-search accounting, kept apart from the float adds/muls so the
  // paper's float complexity tables stay exact while quantized operating
  // points report their own (cheaper) op mix.
  std::atomic<std::uint64_t> adds_q{0};      ///< int8-lane adds (quantized match lines)
  std::atomic<std::uint64_t> muls_q{0};      ///< int8-lane muls (quantized crossbar reads)
  std::atomic<std::uint64_t> xor_popcounts{0};  ///< 64-bit XOR+popcount word ops (sign-plane)

  OpCounter() = default;
  OpCounter(const OpCounter&) = delete;
  OpCounter& operator=(const OpCounter&) = delete;

  void reset() {
    adds.store(0, std::memory_order_relaxed);
    muls.store(0, std::memory_order_relaxed);
    cam_searches.store(0, std::memory_order_relaxed);
    lut_reads.store(0, std::memory_order_relaxed);
    adds_q.store(0, std::memory_order_relaxed);
    muls_q.store(0, std::memory_order_relaxed);
    xor_popcounts.store(0, std::memory_order_relaxed);
  }

  ops::OpCount arithmetic() const {
    return {adds.load(std::memory_order_relaxed), muls.load(std::memory_order_relaxed)};
  }

  ops::OpCount quantized_arithmetic() const {
    return {adds_q.load(std::memory_order_relaxed), muls_q.load(std::memory_order_relaxed)};
  }

  /// Plain snapshot of the full ledger, for the energy model (exact: each
  /// field is one relaxed load, and counts are only priced after the work
  /// that produced them has joined or is quiesced enough for stats).
  ops::OpTotals totals() const {
    ops::OpTotals t;
    t.adds = adds.load(std::memory_order_relaxed);
    t.muls = muls.load(std::memory_order_relaxed);
    t.cam_searches = cam_searches.load(std::memory_order_relaxed);
    t.lut_reads = lut_reads.load(std::memory_order_relaxed);
    t.adds_q = adds_q.load(std::memory_order_relaxed);
    t.muls_q = muls_q.load(std::memory_order_relaxed);
    t.xor_popcounts = xor_popcounts.load(std::memory_order_relaxed);
    return t;
  }
};

/// Publishes a plain tally field by field into `counter`, mirrored into
/// `port` when non-null (zero fields cost nothing). CamArray::flush routes
/// every amount through this, so the network-wide ledger and an array's
/// simulated bank (cam::BankMap) see IDENTICAL amounts by construction —
/// per-bank energy sums to the network total exactly, not approximately.
inline void count_into(const ops::OpTotals& t, OpCounter& counter, OpCounter* port) {
  const auto add = [&](std::atomic<std::uint64_t> OpCounter::* field, std::uint64_t n) {
    if (n == 0) return;
    (counter.*field).fetch_add(n, std::memory_order_relaxed);
    if (port) ((*port).*field).fetch_add(n, std::memory_order_relaxed);
  };
  add(&OpCounter::adds, t.adds);
  add(&OpCounter::muls, t.muls);
  add(&OpCounter::cam_searches, t.cam_searches);
  add(&OpCounter::lut_reads, t.lut_reads);
  add(&OpCounter::adds_q, t.adds_q);
  add(&OpCounter::muls_q, t.muls_q);
  add(&OpCounter::xor_popcounts, t.xor_popcounts);
}

}  // namespace pecan::cam
