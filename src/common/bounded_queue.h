#ifndef RPC_COMMON_BOUNDED_QUEUE_H_
#define RPC_COMMON_BOUNDED_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace rpc {

/// A bounded multi-producer multi-consumer FIFO queue. The fixed capacity
/// is the backpressure mechanism of the serving tier: producers pushing
/// into a full queue block (Push) or are rejected (TryPush) instead of
/// growing an unbounded backlog. Consumers block on Pop until an item or
/// Close() arrives.
///
/// Close() transitions the queue to draining: further pushes fail, but
/// items already queued are still handed out; once empty, Pop returns
/// nullopt to every waiter. All operations are safe to call concurrently
/// from any number of threads.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(int capacity) : capacity_(capacity) {
    assert(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  int capacity() const { return capacity_; }

  int size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(items_.size());
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Largest queue depth observed by any push so far — the admission
  /// high-water mark the serving stats report.
  int peak_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  /// Blocks while the queue is full; returns false when the queue was (or
  /// became, while waiting) closed and the item was not enqueued.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] {
      return closed_ || static_cast<int>(items_.size()) < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    peak_ = std::max(peak_, static_cast<int>(items_.size()));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || static_cast<int>(items_.size()) >= capacity_) return false;
    items_.push_back(std::move(item));
    peak_ = std::max(peak_, static_cast<int>(items_.size()));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained
  /// (then nullopt).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    const bool drained = closed_ && items_.empty();
    lock.unlock();
    not_full_.notify_one();
    if (drained) drained_.notify_all();
    return item;
  }

  /// Non-blocking pop; nullopt when currently empty.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    const bool drained = closed_ && items_.empty();
    lock.unlock();
    not_full_.notify_one();
    if (drained) drained_.notify_all();
    return item;
  }

  /// Rejects future pushes and wakes every blocked producer and consumer;
  /// queued items remain poppable (drain semantics). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Close(), then block until consumers have popped every queued item —
  /// the graceful-shutdown guarantee that no accepted event is dropped.
  /// Every item admitted by a Push/TryPush that returned true before this
  /// call is handed to a consumer before CloseAndDrain returns; consumers
  /// must keep popping (Pop returns the remaining items, then nullopt).
  /// Safe to call from several threads; all of them block until drained.
  void CloseAndDrain() {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
    drained_.wait(lock, [&] { return items_.empty(); });
  }

 private:
  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::condition_variable drained_;
  std::deque<T> items_;
  bool closed_ = false;
  int peak_ = 0;
};

/// Why a push did not (or did) enqueue its item.
enum class QueuePushResult {
  kOk,       // enqueued
  kFull,     // occupancy at/over the lane's admission limit (TryPush only)
  kClosed,   // queue closed before the item could be enqueued
  kTimeout,  // deadline passed while blocked on a full queue (PushUntil only)
};

/// A bounded MPMC queue with priority lanes and per-lane admission
/// watermarks — the traffic-shaping half of the serving tier's QoS story.
///
///   * One shared capacity across `lanes` FIFO lanes; lane 0 is the most
///     important. Pop hands out the front of the lowest-indexed non-empty
///     lane, so under backlog high-priority items overtake low ones while
///     each lane stays FIFO internally.
///   * Each lane has an admission limit (<= capacity, default = capacity):
///     a push into lane L is admitted only while total occupancy is below
///     limit(L). Giving deeper lanes smaller limits reserves headroom for
///     the important lanes — under saturation low-priority pushes are shed
///     first while lane 0 can still use the full capacity.
///   * Push blocks until admitted, closed, or (PushUntil) a deadline;
///     TryPush refuses instead of blocking. Close() keeps the drain
///     semantics of BoundedQueue: queued items remain poppable, then Pop
///     returns nullopt.
///
/// All operations are safe to call concurrently from any number of threads.
template <typename T>
class PriorityBoundedQueue {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  PriorityBoundedQueue(int capacity, int lanes)
      : capacity_(capacity),
        lanes_(static_cast<size_t>(lanes)),
        limits_(static_cast<size_t>(lanes), capacity) {
    assert(capacity >= 1);
    assert(lanes >= 1);
  }

  PriorityBoundedQueue(const PriorityBoundedQueue&) = delete;
  PriorityBoundedQueue& operator=(const PriorityBoundedQueue&) = delete;

  int capacity() const { return capacity_; }
  int lanes() const { return static_cast<int>(lanes_.size()); }

  /// Sets lane `lane`'s admission limit, clamped into [1, capacity]. Not
  /// synchronised against concurrent pushes — configure before use.
  void SetLaneLimit(int lane, int limit) {
    limits_[static_cast<size_t>(lane)] =
        std::clamp(limit, 1, capacity_);
  }

  int lane_limit(int lane) const { return limits_[static_cast<size_t>(lane)]; }

  /// Total occupancy, read without the queue mutex: a snapshot that may be
  /// stale by the time the caller acts on it, which is all a "nothing is
  /// queued right now" test on a hot path needs.
  int size() const { return size_.load(std::memory_order_relaxed); }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Largest total occupancy observed by any push — the admission
  /// high-water mark the serving stats report as peak_queue_depth.
  int peak_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  /// Blocks while occupancy is at/over the lane's limit; kClosed when the
  /// queue was (or became, while waiting) closed.
  QueuePushResult Push(T item, int lane) {
    return PushUntil(std::move(item), lane, TimePoint::max());
  }

  /// Push with a wall-clock bound: gives up with kTimeout once `deadline`
  /// passes while the lane is still over its limit. TimePoint::max() waits
  /// indefinitely (identical to Push).
  QueuePushResult PushUntil(T item, int lane, TimePoint deadline) {
    const int limit = limits_[static_cast<size_t>(lane)];
    std::unique_lock<std::mutex> lock(mu_);
    const auto admissible = [&] { return closed_ || size() < limit; };
    if (deadline == TimePoint::max()) {
      not_full_.wait(lock, admissible);
    } else if (!not_full_.wait_until(lock, deadline, admissible)) {
      return QueuePushResult::kTimeout;
    }
    if (closed_) return QueuePushResult::kClosed;
    Enqueue(std::move(item), lane);
    lock.unlock();
    not_empty_.notify_one();
    return QueuePushResult::kOk;
  }

  /// Non-blocking push; kFull when the lane is at/over its limit.
  QueuePushResult TryPush(T item, int lane) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return QueuePushResult::kClosed;
    if (size() >= limits_[static_cast<size_t>(lane)]) {
      return QueuePushResult::kFull;
    }
    Enqueue(std::move(item), lane);
    lock.unlock();
    not_empty_.notify_one();
    return QueuePushResult::kOk;
  }

  /// Blocks until an item is available or the queue is closed and drained
  /// (then nullopt). Highest-priority (lowest-index) non-empty lane first.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || size() > 0; });
    if (size() == 0) return std::nullopt;  // closed and drained
    return Dequeue(lock);
  }

  /// Non-blocking pop; nullopt when currently empty.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (size() == 0) return std::nullopt;
    return Dequeue(lock);
  }

  /// Rejects future pushes and wakes every blocked producer and consumer;
  /// queued items remain poppable (drain semantics). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  void Enqueue(T item, int lane) {
    lanes_[static_cast<size_t>(lane)].push_back(std::move(item));
    size_.store(size() + 1, std::memory_order_relaxed);
    peak_ = std::max(peak_, size());
  }

  std::optional<T> Dequeue(std::unique_lock<std::mutex>& lock) {
    for (auto& lane : lanes_) {
      if (lane.empty()) continue;
      std::optional<T> item(std::move(lane.front()));
      lane.pop_front();
      size_.store(size() - 1, std::memory_order_relaxed);
      lock.unlock();
      not_full_.notify_all();  // waiters have different limits
      return item;
    }
    return std::nullopt;  // unreachable: size_ > 0
  }

  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<std::deque<T>> lanes_;
  std::vector<int> limits_;
  // Written only under mu_; atomic so that size() can skip the lock.
  std::atomic<int> size_{0};
  int peak_ = 0;
  bool closed_ = false;
};

}  // namespace rpc

#endif  // RPC_COMMON_BOUNDED_QUEUE_H_
