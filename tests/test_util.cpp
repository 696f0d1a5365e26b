// Tests for the utility substrate: CLI parsing, CSV/PGM writers, formatting,
// every PriorityBucketQueue test — the single-class bounded FIFO (capacity,
// close, pop_batch coalescing of what is already queued, MPMC delivery), the
// close/pop_batch race (no accepted item lost or duplicated when close()
// lands while consumers pop or park), and the scheduling policies (FIFO within class, strict
// cross-class precedence, cross-class coalescing, try_push shedding the
// arrival at the bound) — and the LatencyWindow percentile ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
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

using namespace std::chrono_literals;

constexpr auto kKeepAll = [](const int&, const int&) { return true; };

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

TEST(Cli, RejectsNumbersWithTrailingJunk) {
  const char* argv[] = {"prog", "--listen", "7171x", "--seconds", "2.5s",
                        "--port", "7171", "--rate", "2.5"};
  Args args(9, argv);
  EXPECT_THROW(args.get_int("listen", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("seconds", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("port", 0), 7171);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 2.5);
}

TEST(Cli, PortsOutsideSixteenBitsThrowInsteadOfWrapping) {
  const char* argv[] = {"prog", "--listen", "70000", "--port", "-1", "--ok", "65535"};
  Args args(7, argv);
  EXPECT_THROW(args.get_port("listen", 0), std::invalid_argument);  // would wrap to 4464
  EXPECT_THROW(args.get_port("port", 0), std::invalid_argument);
  EXPECT_EQ(args.get_port("ok", 0), 65535);
  EXPECT_EQ(args.get_port("missing", 7171), 7171);
}

TEST(Cli, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used", "1", "--typoed", "2"};
  Args args(5, argv);
  args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typoed");
}

// ------------------------------------------------- PriorityBucketQueue, 1 class
//
// The single-class queue is the plain bounded FIFO: capacity, close, pop_batch
// coalescing and MPMC delivery, with no priority precedence in play.

TEST(PriorityBucketQueue, TryPushShedsAtCapacity) {
  PriorityBucketQueue<int> queue(1, 2);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(queue.try_push(a, 0), PushResult::Ok);
  EXPECT_EQ(queue.try_push(b, 0), PushResult::Ok);
  EXPECT_EQ(queue.try_push(c, 0), PushResult::Full);
  EXPECT_EQ(c, 3);  // rejected item is untouched
  EXPECT_EQ(queue.size(), 2u);

  std::vector<int> batch;
  // max > capacity is legal (Engine: kMaxBatch > max_pending): a full
  // queue hands over everything it holds at once.
  EXPECT_EQ(queue.pop_batch(batch, 8, kKeepAll), 2u);
  EXPECT_EQ(queue.try_push(c, 0), PushResult::Ok);  // space freed

  // After close, try_push fails with Closed and leaves the item untouched,
  // while already-queued items stay poppable; then pop returns 0.
  queue.close();
  int late = 7;
  EXPECT_EQ(queue.try_push(late, 0), PushResult::Closed);
  EXPECT_EQ(late, 7);  // caller still owns the payload
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 8, kKeepAll), 1u);
  EXPECT_EQ(batch, std::vector<int>{3});
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 8, kKeepAll), 0u);
}

TEST(PriorityBucketQueue, UnboundedNeverSheds) {
  PriorityBucketQueue<int> queue(1);  // capacity 0 = unbounded
  for (int i = 0; i < 1000; ++i) {
    int v = i;
    ASSERT_EQ(queue.try_push(v, 0), PushResult::Ok);
  }
  EXPECT_EQ(queue.size(), 1000u);
}

TEST(PriorityBucketQueue, PopBatchCoalescesLongestPrefixAcceptedByPredicate) {
  PriorityBucketQueue<int> queue(1, 8);
  for (int v : {1, 1, 1, 2, 2}) {
    int item = v;
    ASSERT_EQ(queue.try_push(item, 0), PushResult::Ok);
  }
  const auto same = [](const int& first, const int& candidate) { return first == candidate; };
  std::vector<int> batch;
  EXPECT_EQ(queue.pop_batch(batch, 8, same), 3u);  // the three 1s
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 8, same), 2u);  // then the two 2s
  EXPECT_EQ(batch[0], 2);
}

TEST(PriorityBucketQueue, PopBatchCoalescesOnlyWhatIsAlreadyQueued) {
  PriorityBucketQueue<int> queue(1, 8);
  // A lone item on an open queue is handed over at once: pop_batch never
  // waits for `max` items to arrive.
  int lone = 7;
  ASSERT_EQ(queue.try_push(lone, 0), PushResult::Ok);
  std::vector<int> batch;
  EXPECT_EQ(queue.pop_batch(batch, 8, kKeepAll), 1u);
  EXPECT_EQ(batch, std::vector<int>{7});
  // Items that queued up before the pop coalesce into one batch, up to max.
  for (int v = 0; v < 5; ++v) {
    int item = v;
    ASSERT_EQ(queue.try_push(item, 0), PushResult::Ok);
  }
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 3, kKeepAll), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 3, kKeepAll), 2u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4}));
}

TEST(PriorityBucketQueue, PopBatchAnchorsPredicateOnThisCallsFirstItem) {
  PriorityBucketQueue<int> queue(1, 8);
  for (int v : {1, 1, 2}) {
    int item = v;
    ASSERT_EQ(queue.try_push(item, 0), PushResult::Ok);
  }
  const auto same = [](const int& first, const int& candidate) { return first == candidate; };
  // The caller's vector already holds unrelated elements from a previous
  // batch; coalescing must compare against the first item popped NOW (1),
  // not against out.front() (9).
  std::vector<int> out{9, 9};
  EXPECT_EQ(queue.pop_batch(out, 8, same), 2u);
  EXPECT_EQ(out, (std::vector<int>{9, 9, 1, 1}));
}

TEST(PriorityBucketQueue, ConcurrentConsumersRaceForOneItem) {
  // Two consumers park on an empty queue and one item arrives: exactly one
  // of them takes it, and the other stays parked (never popping from an
  // empty deque) until close() wakes it with 0.
  PriorityBucketQueue<int> queue(1, 8);
  std::atomic<int> got_item{0};
  std::atomic<int> got_zero{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      if (queue.pop_batch(batch, 8, kKeepAll) == 0) {
        got_zero.fetch_add(1);
      } else {
        EXPECT_EQ(batch, std::vector<int>{1});
        got_item.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(20ms);  // both consumers are parked
  int item = 1;
  ASSERT_EQ(queue.try_push(item, 0), PushResult::Ok);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (got_item.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(got_item.load(), 1);
  EXPECT_EQ(got_zero.load(), 1);
}

TEST(PriorityBucketQueue, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4, kConsumers = 3, kPerProducer = 200;
  PriorityBucketQueue<int> queue(1, 4);  // small capacity: producers see Full often
  std::vector<std::vector<int>> received(kConsumers);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::vector<int> batch;
      for (;;) {
        batch.clear();
        if (queue.pop_batch(batch, 4, kKeepAll) == 0) return;
        received[static_cast<std::size_t>(c)].insert(received[static_cast<std::size_t>(c)].end(),
                                                     batch.begin(), batch.end());
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        PushResult result;
        while ((result = queue.try_push(v, 0)) == PushResult::Full) std::this_thread::yield();
        ASSERT_EQ(result, PushResult::Ok);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : threads) t.join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  }
}

// The serving-path invariant behind Engine::shutdown: every sample the queue
// ACCEPTED is answered exactly once, even when close() races consumers that
// are mid-pop or parked inside pop_batch and producers pushing into a full
// queue, across classes. Run many short rounds so close() lands
// at a different phase each time.
TEST(PriorityBucketQueue, PopBatchCloseRaceLosesNothingDuplicatesNothing) {
  constexpr int kRounds = 40;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kItemsPerProducer = 50;
  for (int round = 0; round < kRounds; ++round) {
    PriorityBucketQueue<int> queue(3, 4);  // small capacity: producers see Full often

    std::mutex accepted_mutex;
    std::vector<int> accepted;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kItemsPerProducer; ++i) {
          const std::size_t cls = static_cast<std::size_t>((p + i) % 3);
          int item = p * kItemsPerProducer + i;
          const int value = item;
          // Every push outcome must agree with the consumer side about what
          // was accepted.
          const PushResult result = queue.try_push(item, cls);
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
          // max > capacity: every pop takes whatever is queued, so batches
          // of every size race the close().
          if (queue.pop_batch(batch, 8, kKeepAll) == 0) return;
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

// close() while a consumer is parked inside pop_batch on an EMPTY queue: it
// must wake and return 0. Items queued before a close are still delivered —
// close never discards them.
TEST(PriorityBucketQueue, CloseWakesAParkedConsumer) {
  PriorityBucketQueue<int> queue(1, 16);
  std::vector<int> batch;
  std::atomic<std::size_t> popped{999};
  std::thread consumer([&] { popped.store(queue.pop_batch(batch, 8, kKeepAll)); });
  std::this_thread::sleep_for(20ms);  // the consumer is parked
  queue.close();
  consumer.join();
  EXPECT_EQ(popped.load(), 0u);
  EXPECT_TRUE(batch.empty());

  PriorityBucketQueue<int> closed_with_items(1, 16);
  for (int v : {1, 2, 3}) {
    int item = v;
    ASSERT_EQ(closed_with_items.try_push(item, 0), PushResult::Ok);
  }
  closed_with_items.close();
  EXPECT_EQ(closed_with_items.pop_batch(batch, 8, kKeepAll), 3u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  batch.clear();
  EXPECT_EQ(closed_with_items.pop_batch(batch, 8, kKeepAll), 0u);  // closed and drained
}

// ---------------------------------------------------------------------------
// PriorityBucketQueue — the SLO scheduler's front door. Items are encoded as
// cls * 1000 + seq so a popped value carries both its class and its push
// order.
// ---------------------------------------------------------------------------

int push_pq(PriorityBucketQueue<int>& q, std::size_t cls, int seq) {
  int item = static_cast<int>(cls) * 1000 + seq;
  const int value = item;
  EXPECT_EQ(q.try_push(item, cls), PushResult::Ok);
  return value;
}

TEST(PriorityBucketQueue, FifoWithinClassAndStrictPrecedenceAcrossClasses) {
  PriorityBucketQueue<int> q(3);
  // Interleave pushes across classes; pops must come back class 2 first
  // (FIFO within it), then class 1, then class 0.
  push_pq(q, 0, 0);
  push_pq(q, 2, 0);
  push_pq(q, 1, 0);
  push_pq(q, 0, 1);
  push_pq(q, 2, 1);
  push_pq(q, 1, 1);
  EXPECT_EQ(q.size(), 6u);

  std::vector<int> order;
  std::vector<int> batch;
  while (q.size() > 0) {
    batch.clear();
    ASSERT_EQ(q.pop_batch(batch, 1, kKeepAll), 1u);
    order.push_back(batch[0]);
  }
  EXPECT_EQ(order, (std::vector<int>{2000, 2001, 1000, 1001, 0, 1}));
}

TEST(PriorityBucketQueue, PopBatchCoalescesAcrossClasses) {
  PriorityBucketQueue<int> q(3);
  push_pq(q, 0, 0);
  push_pq(q, 0, 1);
  push_pq(q, 2, 0);
  push_pq(q, 2, 1);
  // One pop_batch drains all four: the first item AND each coalesced one
  // come from the highest non-empty class at that moment, so the
  // batch crosses from class 2 into class 0 in precedence order.
  std::vector<int> batch;
  EXPECT_EQ(q.pop_batch(batch, 8, kKeepAll), 4u);
  EXPECT_EQ(batch, (std::vector<int>{2000, 2001, 0, 1}));
  // The keep predicate still bounds the coalesced prefix across classes.
  push_pq(q, 2, 2);
  push_pq(q, 0, 2);
  batch.clear();
  const auto keep_same_class = [](const int& first, const int& cand) {
    return first / 1000 == cand / 1000;
  };
  EXPECT_EQ(q.pop_batch(batch, 8, keep_same_class), 1u);
  EXPECT_EQ(batch, (std::vector<int>{2002}));
  EXPECT_EQ(q.size(), 1u);  // the class-0 item stayed queued
}

TEST(PriorityBucketQueue, TryPushNeverEvictsForAHigherClass) {
  PriorityBucketQueue<int> q(3, 2);
  push_pq(q, 0, 0);
  push_pq(q, 0, 1);
  // A full queue sheds every arrival, whatever its class, and leaves it
  // intact in the caller's hands.
  int urgent = 2000;
  EXPECT_EQ(q.try_push(urgent, 2), PushResult::Full);
  EXPECT_EQ(urgent, 2000);
  EXPECT_EQ(q.drain(), (std::vector<int>{0, 1}));
}

TEST(PriorityBucketQueue, SoftCapacityTightensAndReopensAdmission) {
  PriorityBucketQueue<int> q(2, 8);
  push_pq(q, 0, 0);
  push_pq(q, 0, 1);
  q.set_soft_capacity(2);  // controller clamps admission below the hard bound
  int item = 42;
  EXPECT_EQ(q.try_push(item, 1), PushResult::Full);  // the cap holds for every class
  EXPECT_EQ(q.size(), 2u);
  q.set_soft_capacity(0);  // back to the hard bound
  EXPECT_EQ(q.try_push(item, 1), PushResult::Ok);
  EXPECT_EQ(q.size(), 3u);
}

TEST(PriorityBucketQueue, CloseWithPendingDrainsEveryClass) {
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
    if (q.pop_batch(batch, 2, kKeepAll) == 0) break;
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
        if (q.pop_batch(batch, 3, kKeepAll) == 0) break;
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
