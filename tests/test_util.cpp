// Tests for the utility substrate: CLI parsing, CSV/PGM writers, formatting,
// the PriorityBucketQueue close/pop_batch race (no accepted item lost or
// duplicated when close() lands while consumers are mid-coalesce), its
// scheduling policies (FIFO within class, strict
// cross-class precedence, shed-lowest-first eviction, cross-class
// coalescing), and the LatencyWindow percentile ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "util/bounded_queue.hpp"
#include "util/cli.hpp"
#include "util/csv_writer.hpp"
#include "util/format.hpp"
#include "util/latency_window.hpp"
#include "util/pgm_writer.hpp"

namespace pecan::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Cli, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--epochs", "10", "--lr", "0.01", "--verbose"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("epochs", 0), 10);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0), 0.01);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, BareFlagBeforeAnotherKey) {
  const char* argv[] = {"prog", "--quick", "--epochs", "3"};
  Args args(4, argv);
  EXPECT_TRUE(args.get_bool("quick", false));
  EXPECT_EQ(args.get_int("epochs", 0), 3);
}

TEST(Cli, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Cli, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used", "1", "--typoed", "2"};
  Args args(5, argv);
  args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typoed");
}

// The serving-path invariant behind Engine::shutdown: every sample the queue
// ACCEPTED is answered exactly once, even when close() races consumers that
// are mid-coalesce inside pop_batch (straggler wait) and producers that are
// blocked in push(). Run many short rounds so close() lands at a different
// phase each time.
TEST(PriorityBucketQueue, PopBatchCloseRaceLosesNothingDuplicatesNothing) {
  using namespace std::chrono_literals;
  constexpr int kRounds = 40;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kItemsPerProducer = 50;
  constexpr auto kKeep = [](const int&, const int&) { return true; };

  for (int round = 0; round < kRounds; ++round) {
    PriorityBucketQueue<int> queue(1, 4);  // small capacity: producers block often

    std::mutex accepted_mutex;
    std::vector<int> accepted;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kItemsPerProducer; ++i) {
          int item = p * kItemsPerProducer + i;
          const int value = item;
          // Alternate blocking and shedding pushes: both must agree with the
          // consumer side about what was accepted. One class has nothing
          // below it to evict, so a full queue sheds the incoming item.
          std::optional<int> evicted;
          const PushResult result =
              (i % 2 == 0) ? queue.push(item, 0) : queue.try_push_evict(item, 0, evicted);
          EXPECT_FALSE(evicted.has_value());
          if (result == PushResult::Ok) {
            std::lock_guard<std::mutex> lock(accepted_mutex);
            accepted.push_back(value);
          } else {
            EXPECT_EQ(item, value);  // rejected item left intact
            if (result == PushResult::Closed) break;  // no later push can succeed
          }
        }
      });
    }

    std::mutex popped_mutex;
    std::vector<int> popped;
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        std::vector<int> batch;
        for (;;) {
          batch.clear();
          // want > capacity forces the straggler wait — the mid-coalesce
          // window the close() must not corrupt.
          if (queue.pop_batch(batch, 8, 300us, 6, kKeep) == 0) return;
          std::lock_guard<std::mutex> lock(popped_mutex);
          popped.insert(popped.end(), batch.begin(), batch.end());
        }
      });
    }

    // Close somewhere in the middle of the stream, at a varying phase.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 7)));
    queue.close();

    for (std::thread& t : producers) t.join();
    for (std::thread& t : consumers) t.join();

    std::sort(accepted.begin(), accepted.end());
    std::sort(popped.begin(), popped.end());
    EXPECT_EQ(popped, accepted) << "round " << round << ": accepted " << accepted.size()
                                << " items, popped " << popped.size();
  }
}

// close() while a consumer is parked INSIDE the straggler wait (queue has
// items, but fewer than `want`): the consumer must still pop what is there —
// close never discards queued items.
TEST(PriorityBucketQueue, CloseDuringStragglerWaitStillDeliversQueuedItems) {
  using namespace std::chrono_literals;
  constexpr auto kKeep = [](const int&, const int&) { return true; };
  PriorityBucketQueue<int> queue(1, 16);
  for (int v : {1, 2, 3}) {
    int item = v;
    ASSERT_EQ(queue.push(item, 0), PushResult::Ok);
  }

  std::vector<int> batch;
  std::thread consumer([&] {
    // want=8 > queued=3 and a long straggler window: the consumer parks
    // until close() wakes it, then must deliver all 3 items.
    queue.pop_batch(batch, 8, 10s, 8, kKeep);
  });
  std::this_thread::sleep_for(20ms);
  queue.close();
  consumer.join();
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 8, 0us, 1, kKeep), 0u);  // closed and drained
}

// ---------------------------------------------------------------------------
// PriorityBucketQueue — the SLO scheduler's front door. Items are encoded as
// cls * 1000 + seq so a popped value carries both its class and its push
// order.
// ---------------------------------------------------------------------------

constexpr auto kKeepAll = [](const int&, const int&) { return true; };

int push_pq(PriorityBucketQueue<int>& q, std::size_t cls, int seq) {
  int item = static_cast<int>(cls) * 1000 + seq;
  const int value = item;
  EXPECT_EQ(q.push(item, cls), PushResult::Ok);
  return value;
}

TEST(PriorityBucketQueue, FifoWithinClassAndStrictPrecedenceAcrossClasses) {
  using namespace std::chrono_literals;
  PriorityBucketQueue<int> q(3);
  // Interleave pushes across classes; pops must come back class 2 first
  // (FIFO within it), then class 1, then class 0.
  push_pq(q, 0, 0);
  push_pq(q, 2, 0);
  push_pq(q, 1, 0);
  push_pq(q, 0, 1);
  push_pq(q, 2, 1);
  push_pq(q, 1, 1);
  EXPECT_EQ(q.depth(0), 2u);
  EXPECT_EQ(q.depth(1), 2u);
  EXPECT_EQ(q.depth(2), 2u);

  std::vector<int> order;
  std::vector<int> batch;
  while (q.size() > 0) {
    batch.clear();
    ASSERT_EQ(q.pop_batch(batch, 1, 0us, 1, kKeepAll), 1u);
    order.push_back(batch[0]);
  }
  EXPECT_EQ(order, (std::vector<int>{2000, 2001, 1000, 1001, 0, 1}));
}

TEST(PriorityBucketQueue, PopBatchCoalescesAcrossClasses) {
  using namespace std::chrono_literals;
  PriorityBucketQueue<int> q(3);
  push_pq(q, 0, 0);
  push_pq(q, 0, 1);
  push_pq(q, 2, 0);
  push_pq(q, 2, 1);
  // One pop_batch drains all four: the first item AND each coalesced
  // straggler come from the highest non-empty class at that moment, so the
  // batch crosses from class 2 into class 0 in precedence order.
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, 0us, 1, kKeepAll), 4u);
  EXPECT_EQ(batch, (std::vector<int>{2000, 2001, 0, 1}));
  // The keep predicate still bounds the coalesced prefix across classes.
  push_pq(q, 2, 2);
  push_pq(q, 0, 2);
  batch.clear();
  const auto keep_same_class = [](const int& first, const int& cand) {
    return first / 1000 == cand / 1000;
  };
  EXPECT_EQ(q.pop_batch(batch, 8, 0us, 1, keep_same_class), 1u);
  EXPECT_EQ(batch, (std::vector<int>{2002}));
  EXPECT_EQ(q.size(), 1u);  // the class-0 item stayed queued
}

TEST(PriorityBucketQueue, RejectModeShedsLowestClassFirst) {
  PriorityBucketQueue<int> q(3, 2);
  push_pq(q, 0, 0);
  push_pq(q, 0, 1);

  // Full queue + lowest-class arrival: the INCOMING item sheds (Full), and
  // the rejected item is left intact in the caller's hands.
  std::optional<int> evicted;
  int low = 7;
  EXPECT_EQ(q.try_push_evict(low, 0, evicted), PushResult::Full);
  EXPECT_EQ(low, 7);
  EXPECT_FALSE(evicted.has_value());

  // Full queue + higher-class arrival: the NEWEST item of the lowest
  // occupied class below it is evicted and handed back; the urgent item is
  // admitted.
  int urgent = 2000;
  EXPECT_EQ(q.try_push_evict(urgent, 2, evicted), PushResult::Ok);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1);  // newest class-0 item (drop-tail), not the oldest
  EXPECT_EQ(q.depth(0), 1u);
  EXPECT_EQ(q.depth(2), 1u);

  // Full queue of equal-or-higher classes: a mid-class arrival with nothing
  // strictly below it sheds itself.
  int mid = 1000;
  EXPECT_EQ(q.try_push_evict(mid, 1, evicted), PushResult::Ok);  // evicts value 0 (class 0)
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 0);
  int mid2 = 1001;
  EXPECT_EQ(q.try_push_evict(mid2, 1, evicted), PushResult::Full);
  EXPECT_FALSE(evicted.has_value());
}

TEST(PriorityBucketQueue, SoftCapacityTightensAndReopensAdmission) {
  PriorityBucketQueue<int> q(2, 8);
  push_pq(q, 0, 0);
  push_pq(q, 0, 1);
  q.set_soft_capacity(2);  // controller clamps admission below the hard bound
  std::optional<int> evicted;
  int low = 41;
  EXPECT_EQ(q.try_push_evict(low, 0, evicted), PushResult::Full);  // the cap holds
  EXPECT_FALSE(evicted.has_value());
  int item = 42;
  EXPECT_EQ(q.try_push_evict(item, 1, evicted), PushResult::Ok);  // evicts under the cap
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(q.size(), 2u);
  q.set_soft_capacity(0);  // back to the hard bound
  int more = 43;
  EXPECT_EQ(q.try_push_evict(more, 0, evicted), PushResult::Ok);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(q.size(), 3u);
}

TEST(PriorityBucketQueue, CloseWithPendingDrainsEveryClass) {
  using namespace std::chrono_literals;
  PriorityBucketQueue<int> q(3);
  push_pq(q, 0, 0);
  push_pq(q, 1, 0);
  push_pq(q, 2, 0);
  push_pq(q, 1, 1);
  q.close();
  // pop_batch after close still delivers everything, precedence order.
  std::vector<int> out;
  std::vector<int> batch;
  for (;;) {
    batch.clear();
    if (q.pop_batch(batch, 2, 0us, 1, kKeepAll) == 0) break;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(out, (std::vector<int>{2000, 1000, 1001, 0}));
  EXPECT_EQ(q.size(), 0u);

  // drain() after close frees whatever a consumer never claimed.
  PriorityBucketQueue<int> q2(2);
  push_pq(q2, 0, 0);
  push_pq(q2, 1, 0);
  q2.close();
  EXPECT_EQ(q2.drain(), (std::vector<int>{1000, 0}));
}

// Strict precedence under concurrent POPs: with the queue preloaded and no
// pushes racing, every consumer's own pop sequence must be non-increasing in
// class — once it saw a class-c item, all higher classes were already empty
// and stay empty.
TEST(PriorityBucketQueue, ConcurrentPopsObserveNonIncreasingClasses) {
  using namespace std::chrono_literals;
  constexpr int kPerClass = 200;
  PriorityBucketQueue<int> q(3);
  for (int seq = 0; seq < kPerClass; ++seq) {
    for (std::size_t cls = 0; cls < 3; ++cls) push_pq(q, cls, seq);
  }
  q.close();

  std::atomic<int> total{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      int last_class = 2;
      int popped = 0;
      for (;;) {
        batch.clear();
        if (q.pop_batch(batch, 3, 0us, 1, kKeepAll) == 0) break;
        for (int v : batch) {
          const int cls = v / 1000;
          EXPECT_LE(cls, last_class);
          last_class = cls;
          ++popped;
        }
      }
      total.fetch_add(popped);
    });
  }
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(total.load(), 3 * kPerClass);
}

// The race the Engine relies on: concurrent producers (mixing blocking,
// shedding, and evicting pushes) against coalescing consumers, with close()
// landing mid-stream. Every item lands in exactly one of {accepted+popped,
// evicted, rejected} — nothing lost, nothing duplicated.
TEST(PriorityBucketQueue, ConcurrentPushPopEvictLosesNothingDuplicatesNothing) {
  using namespace std::chrono_literals;
  constexpr int kRounds = 25;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kItemsPerProducer = 60;

  for (int round = 0; round < kRounds; ++round) {
    PriorityBucketQueue<int> queue(3, 4);  // small capacity: eviction paths hot

    std::mutex bookkeeping_mutex;
    std::vector<int> accepted;
    std::vector<int> evicted_items;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kItemsPerProducer; ++i) {
          const std::size_t cls = static_cast<std::size_t>((p + i) % 3);
          int item = (p * kItemsPerProducer + i) * 10 + static_cast<int>(cls);
          const int value = item;
          std::optional<int> evicted;
          const PushResult result = (i % 2 == 0) ? queue.push(item, cls)
                                                 : queue.try_push_evict(item, cls, evicted);
          if (result == PushResult::Ok) {
            std::lock_guard<std::mutex> lock(bookkeeping_mutex);
            accepted.push_back(value);
            if (evicted) evicted_items.push_back(*evicted);
          } else {
            EXPECT_EQ(item, value);  // rejected item left intact
            if (result == PushResult::Closed) break;
          }
        }
      });
    }

    std::mutex popped_mutex;
    std::vector<int> popped;
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        std::vector<int> batch;
        for (;;) {
          batch.clear();
          if (queue.pop_batch(batch, 8, 300us, 6, kKeepAll) == 0) return;
          std::lock_guard<std::mutex> lock(popped_mutex);
          popped.insert(popped.end(), batch.begin(), batch.end());
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 7)));
    queue.close();
    for (std::thread& t : producers) t.join();
    for (std::thread& t : consumers) t.join();

    // accepted = popped ∪ evicted, disjointly.
    std::vector<int> served = popped;
    served.insert(served.end(), evicted_items.begin(), evicted_items.end());
    std::sort(accepted.begin(), accepted.end());
    std::sort(served.begin(), served.end());
    EXPECT_EQ(served, accepted) << "round " << round << ": accepted " << accepted.size()
                                << ", popped " << popped.size() << ", evicted "
                                << evicted_items.size();
  }
}

// ---------------------------------------------------------------------------
// LatencyWindow — the bounded percentile estimator behind EngineStats and the
// SLO controller.
// ---------------------------------------------------------------------------

TEST(LatencyWindow, BoundedRingForgetsOldSamples) {
  LatencyWindow w(4);
  for (double v : {100.0, 100.0, 100.0, 100.0}) w.record(v);
  EXPECT_DOUBLE_EQ(w.percentile(0.99), 100.0);
  // Four fresh fast samples displace the spike entirely.
  for (double v : {1.0, 1.0, 2.0, 2.0}) w.record(v);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.total(), 8u);
  EXPECT_LE(w.percentile(0.99), 2.0);
  EXPECT_DOUBLE_EQ(w.percentile(0.0), 1.0);
}

TEST(LatencyWindow, PercentilesAndClear) {
  LatencyWindow w(128);
  EXPECT_DOUBLE_EQ(w.percentile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) w.record(static_cast<double>(i));
  EXPECT_NEAR(w.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(w.percentile(0.99), 99.0, 1.0);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.percentile(0.99), 0.0);
}

TEST(Csv, WritesHeaderAndQuotedCells) {
  const std::string path = "/tmp/pecan_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row(std::vector<std::string>{"1", "with,comma"});
    csv.row(std::vector<double>{2.5, 3.0});
  }
  const std::string content = read_file(path);
  EXPECT_NE(content.find("a,b\n"), std::string::npos);
  EXPECT_NE(content.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(content.find("2.5,3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWrongWidth) {
  const std::string path = "/tmp/pecan_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Pgm, WritesValidHeaderAndScales) {
  const std::string path = "/tmp/pecan_pgm_test.pgm";
  write_pgm(path, {0.f, 0.5f, 1.f, 0.25f}, 2, 2);
  const std::string content = read_file(path);
  EXPECT_EQ(content.rfind("P2\n2 2\n255\n", 0), 0u);
  EXPECT_NE(content.find("255"), std::string::npos);  // max maps to 255
  EXPECT_NE(content.find("0"), std::string::npos);    // min maps to 0
  std::remove(path.c_str());
}

TEST(Pgm, ConstantImageIsMidGray) {
  const std::string path = "/tmp/pecan_pgm_test2.pgm";
  write_pgm(path, {3.f, 3.f}, 1, 2);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("128 128"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Pgm, RejectsSizeMismatch) {
  EXPECT_THROW(write_pgm("/tmp/x.pgm", {1.f, 2.f}, 2, 2), std::invalid_argument);
}

TEST(Format, ForcedUnits) {
  EXPECT_EQ(human_count(211710000, 'M'), "211.71M");
  EXPECT_EQ(human_count(353260000, 'M'), "353.26M");
  EXPECT_EQ(human_count(730000000, 'G'), "0.73G");
  EXPECT_EQ(human_count(248100, 'K'), "248.10K");
  // Unknown unit falls back to auto.
  EXPECT_EQ(human_count(248100, 'X'), "248.10K");
}

TEST(Format, PercentAndPad) {
  EXPECT_EQ(percent(92.549), "92.55");
  EXPECT_EQ(percent(1.0, 0), "1");
  EXPECT_EQ(pad("ab", 5), "ab   ");
  EXPECT_EQ(pad("abcdef", 3), "abcdef");
}

}  // namespace
}  // namespace pecan::util
