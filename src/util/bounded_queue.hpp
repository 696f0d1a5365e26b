// util::PriorityBucketQueue — the admission-controlled pending buffer of the
// serving runtime (Engine's sample queue, NetServer's executor job queue).
//
// A bounded MPMC queue: any number of producers push work items, any number
// of consumers pop them. K priority classes share ONE capacity bound
// (admission control is about total queued work, not per-class fairness);
// class indices are 0..K-1 with HIGHER values more urgent. A single-class
// queue is the plain FIFO: that is the Engine's queue, while NetServer's
// executor queue has one class per wire priority level. The queue owns the
// policy decisions a serving front door needs and nothing else:
//   * a capacity bound (0 = unbounded) — try_push() never blocks: at the
//     bound it returns Full and the caller sheds the arrival. No producer
//     ever waits for space;
//   * close semantics — close() wakes every blocked consumer; pushes after
//     close fail with Closed, pops keep draining whatever is already queued
//     so no accepted item is ever dropped;
//   * batched consumption — pop_batch() waits for the first item, then
//     pops the longest prefix of up to `max` items a caller predicate
//     accepts. It coalesces only what is already queued and never waits
//     for more, so a lone item is handed over at once;
//   * consumers drain the highest non-empty class first — pop_batch picks
//     every item (the first AND each coalesced one) from the highest class
//     available at that moment, so batches coalesce ACROSS classes while
//     strict precedence holds at every single pop.
//
// Push never moves from the caller's item unless it is accepted, so a
// rejected producer still owns its payload and can retry elsewhere. (Note
// this is a queue-level guarantee: Engine::submit takes its sample by
// value, so at THAT boundary a shed request's tensor is gone either way.)
// The queue counts nothing: sheds are counted by the caller that fails the
// shed item (EngineStats::shed), so there is one shed ledger.
//
// A `soft_capacity` below the hard bound lets a controller shrink the
// admission window at runtime (deadline-derived queue caps): pushes respect
// min(capacity, soft_capacity) while items already queued stay poppable.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace pecan::util {

enum class PushResult {
  Ok,      ///< item accepted (and moved from)
  Full,    ///< capacity reached (try_push only); item untouched
  Closed,  ///< queue closed; item untouched
};

template <typename T>
class PriorityBucketQueue {
 public:
  /// `classes` >= 1 priority buckets; capacity == 0 means unbounded.
  explicit PriorityBucketQueue(std::size_t classes, std::size_t capacity = 0)
      : capacity_(capacity),
        soft_capacity_(capacity),
        buckets_(classes == 0 ? 1 : classes) {}

  PriorityBucketQueue(const PriorityBucketQueue&) = delete;
  PriorityBucketQueue& operator=(const PriorityBucketQueue&) = delete;

  /// Non-blocking push into class `cls` (clamped to the top class): Full
  /// (item untouched) at the effective bound, never evicts. On an unbounded
  /// queue it returns only Ok or Closed.
  PushResult try_push(T& item, std::size_t cls) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::Closed;
      if (at_capacity()) return PushResult::Full;
      enqueue(std::move(item), clamp_class(cls));
    }
    cv_.notify_all();
    return PushResult::Ok;
  }

  /// Consumer side. Blocks until at least one item is queued (or returns 0
  /// when the queue is closed and drained), then appends to `out` the
  /// longest prefix of up to `max` items for which keep(first, candidate)
  /// holds, where `first` is the first item popped by THIS call (always
  /// taken, and unaffected by anything the caller already had in `out`).
  /// Only items already queued coalesce: it never waits for stragglers.
  /// Every item is taken from the HIGHEST non-empty class at its pop;
  /// keep() bounds the prefix across classes freely.
  template <typename Keep>
  std::size_t pop_batch(std::vector<T>& out, std::size_t max, Keep keep) {
    // No notify after popping: only consumers ever wait, and fewer queued
    // items satisfies none of them.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || total_ > 0; });
    if (total_ == 0) return 0;  // closed and drained
    const std::size_t first = out.size();
    out.push_back(dequeue_top());
    std::size_t popped = 1;
    while (total_ > 0 && popped < max && keep(out[first], top())) {
      out.push_back(dequeue_top());
      ++popped;
    }
    return popped;
  }

  /// Moves out everything still queued, highest class first (FIFO within a
  /// class). Works after close().
  std::vector<T> drain() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<T> out;
    out.reserve(total_);
    while (total_ > 0) out.push_back(dequeue_top());
    return out;
  }

  /// Rejects future pushes and wakes every blocked consumer.
  /// Already-queued items stay poppable. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  /// Controller knob: tighten admission to min(capacity, n) without touching
  /// already-queued items. 0 restores the hard bound. Only producers read
  /// the bound, so no consumer needs waking.
  void set_soft_capacity(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    soft_capacity_ = n;
  }

 private:
  // All helpers require mutex_ held.
  std::size_t clamp_class(std::size_t cls) const {
    return cls < buckets_.size() ? cls : buckets_.size() - 1;
  }

  bool at_capacity() const {
    const std::size_t hard = capacity_;
    const std::size_t soft = soft_capacity_;
    const std::size_t bound = hard == 0 ? soft : (soft == 0 ? hard : std::min(hard, soft));
    return bound != 0 && total_ >= bound;
  }

  void enqueue(T&& item, std::size_t cls) {
    buckets_[cls].push_back(std::move(item));
    ++total_;
  }

  std::size_t top_class() const {
    for (std::size_t c = buckets_.size(); c-- > 0;) {
      if (!buckets_[c].empty()) return c;
    }
    return 0;  // unreachable when total_ > 0
  }

  T& top() { return buckets_[top_class()].front(); }

  T dequeue_top() {
    const std::size_t c = top_class();
    T item = std::move(buckets_[c].front());
    buckets_[c].pop_front();
    --total_;
    return item;
  }

  const std::size_t capacity_;
  std::size_t soft_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::deque<T>> buckets_;
  std::size_t total_ = 0;
  bool closed_ = false;
};

}  // namespace pecan::util
