// util::PriorityBucketQueue — the admission-controlled pending buffer of the
// serving runtime (Engine's sample queue, NetServer's executor job queue).
//
// A bounded MPMC queue: any number of producers push work items, any number
// of consumers pop them. K priority classes share ONE capacity bound
// (admission control is about total queued work, not per-class fairness);
// class indices are 0..K-1 with HIGHER values more urgent, and class 0 is
// the default every legacy producer lands in. A single-class queue is the
// plain FIFO. The queue owns the policy decisions a serving front door needs
// and nothing else:
//   * a capacity bound (0 = unbounded) — push() blocks while full
//     (backpressure propagates to the caller), try_push_evict() never
//     blocks (caller sheds);
//   * close semantics — close() wakes every blocked producer and consumer;
//     pushes after close fail with Closed, pops keep draining whatever is
//     already queued so no accepted item is ever dropped;
//   * batched consumption — pop_batch() waits for the first item, then
//     briefly for stragglers (micro-batch coalescing), then pops the longest
//     prefix a caller predicate accepts;
//   * consumers drain the highest non-empty class first — pop_batch picks
//     every item (the first AND each coalesced straggler) from the highest
//     class available at that moment, so batches coalesce ACROSS classes
//     while strict precedence holds at every single pop;
//   * under Reject-mode pressure the LOWEST class sheds first —
//     try_push_evict on a full queue evicts the newest item of the lowest
//     occupied class strictly below the incoming one (drop-tail of the least
//     urgent traffic) and hands it back to the caller to fail; an incoming
//     item that is itself (tied for) lowest is the one shed.
//
// Push never moves from the caller's item unless it is accepted, so a
// rejected producer still owns its payload and can retry elsewhere. (Note
// this is a queue-level guarantee: Engine::submit takes its sample by
// value, so at THAT boundary a shed request's tensor is gone either way.)
//
// The queue reports per-class depth only; sheds are counted by the caller
// that fails the shed item (Engine's EngineStats::classes[c].shed counts
// rejections and evictions alike), so there is one shed ledger.
//
// A `soft_capacity` below the hard bound lets a controller shrink the
// admission window at runtime (deadline-derived queue caps): pushes respect
// min(capacity, soft_capacity) while items already queued stay poppable.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace pecan::util {

enum class PushResult {
  Ok,      ///< item accepted (and moved from)
  Full,    ///< capacity reached (try_push_evict only); item untouched
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

  std::size_t classes() const { return buckets_.size(); }

  /// Non-blocking push into class `cls` (clamped to the top class) that
  /// sheds the lowest class first: when full, the newest item of the lowest
  /// occupied class STRICTLY below `cls` is evicted into `evicted` (the
  /// caller owns failing it) and `item` is accepted. If `cls` is itself
  /// (tied for) the lowest, the incoming item sheds instead (Full, item
  /// untouched).
  PushResult try_push_evict(T& item, std::size_t cls, std::optional<T>& evicted) {
    evicted.reset();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cls = clamp_class(cls);
      if (closed_) return PushResult::Closed;
      if (at_capacity()) {
        std::size_t victim = buckets_.size();
        for (std::size_t c = 0; c < cls; ++c) {
          if (!buckets_[c].empty()) {
            victim = c;
            break;
          }
        }
        if (victim >= buckets_.size()) return PushResult::Full;
        evicted = std::move(buckets_[victim].back());
        buckets_[victim].pop_back();
        --total_;
      }
      enqueue(std::move(item), cls);
    }
    cv_.notify_all();
    return PushResult::Ok;
  }

  /// Blocking push: waits for space under the effective (soft) bound.
  PushResult push(T& item, std::size_t cls) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return closed_ || !at_capacity(); });
      if (closed_) return PushResult::Closed;
      enqueue(std::move(item), clamp_class(cls));
    }
    cv_.notify_all();
    return PushResult::Ok;
  }

  /// Consumer side. Blocks until at least one item is queued (or returns 0
  /// when the queue is closed and drained). If fewer than `want` items are
  /// queued and the queue is still open, waits up to `straggler` for more to
  /// coalesce. Then appends to `out` the longest prefix of up to `max` items
  /// for which keep(first, candidate) holds, where `first` is the first item
  /// popped by THIS call (always taken, and unaffected by anything the
  /// caller already had in `out`). The first item and every coalesced
  /// straggler are each taken from the HIGHEST non-empty class at that pop;
  /// keep() bounds the prefix across classes freely.
  template <typename Keep>
  std::size_t pop_batch(std::vector<T>& out, std::size_t max,
                        std::chrono::microseconds straggler, std::size_t want, Keep keep) {
    std::size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        cv_.wait(lock, [this] { return closed_ || total_ > 0; });
        if (closed_ && total_ == 0) return 0;  // closed and drained
        if (!closed_ && total_ < want && !at_capacity()) {
          // A queue at capacity can't coalesce further — waiting for more
          // stragglers would burn the whole window with producers stalled
          // behind a full queue (want > capacity is a legal config).
          cv_.wait_for(lock, straggler, [this, want] {
            return closed_ || total_ >= want || at_capacity();
          });
          // The straggler wait releases the lock, so a concurrent consumer
          // may have drained the queue meanwhile: re-check before popping.
          if (total_ == 0) continue;
        }
        break;
      }
      const std::size_t first = out.size();
      out.push_back(dequeue_top());
      ++popped;
      while (total_ > 0 && popped < max && keep(out[first], top())) {
        out.push_back(dequeue_top());
        ++popped;
      }
    }
    cv_.notify_all();
    return popped;
  }

  /// Moves out everything still queued, highest class first (FIFO within a
  /// class). Works after close().
  std::vector<T> drain() {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out.reserve(total_);
      while (total_ > 0) out.push_back(dequeue_top());
    }
    cv_.notify_all();
    return out;
  }

  /// Rejects future pushes and wakes every blocked producer/consumer.
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

  std::size_t depth(std::size_t cls) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_[clamp_class(cls)].size();
  }

  /// Controller knob: tighten admission to min(capacity, n) without touching
  /// already-queued items. 0 restores the hard bound. Wakes blocked pushers
  /// when the window widens.
  void set_soft_capacity(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      soft_capacity_ = n;
    }
    cv_.notify_all();
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
