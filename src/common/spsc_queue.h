// Bounded single-producer / single-consumer ring queue.
//
// Three hand-offs use it: each shard of a multi-shard Session
// (src/runtime/session.h) has one ring of events, which the front writes
// straight into and the worker drains a batch of spans at a time, and one
// small ring of control messages next to it; each producer of the
// multi-producer hub (src/common/mpsc_ingest.h) has one ring of events that
// the sequencer merges. The queue keeps these hand-offs wait-free in the
// common case: one release store per TryPush, one release store per TryPop
// or Consume, no locks, no allocation after construction. Exactly one
// thread may call the producer side (TryPush, pushed) and exactly one
// thread the consumer side (TryPop, Peek, Readable, Consume, popped); the
// queue itself never blocks — callers decide how to wait when it is full
// (backpressure) or empty (parking).
//
// Layout follows the classic Lamport ring: head_ (next slot to pop) and
// tail_ (next slot to push) monotonically increase and are reduced modulo a
// power-of-two capacity. Each index lives on its own cache line so the
// producer and consumer do not false-share. The slots are raw storage: an
// element is constructed by its push and destroyed by its pop or Consume,
// so construction touches no slot (a large ring costs nothing until it is
// used) and a popped element keeps no payload alive inside the ring.
//
// Memory-order contract (the whole correctness argument — keep in sync with
// any change to the loads/stores below):
//
//   tail_  is written ONLY by the producer. Its release store in TryPush
//          publishes the slot construction that precedes it; the
//          consumer's acquire loads (TryPop/Peek/Readable)
//          synchronize with it, so observing `tail_ > head` implies the
//          slot's payload is fully constructed. The producer's own loads of
//          tail_ are relaxed — it is the only writer, so it always sees its
//          own latest value.
//
//   head_  is the mirror image: written ONLY by the consumer, release store
//          in TryPop/Consume publishing that the slot's payload was read and
//          destroyed, so the producer's acquire load in TryPush knows it may
//          construct a new one there. The consumer's own loads of head_ are
//          relaxed.
//
//   Neither index ever needs seq_cst: each side spins on the OTHER side's
//   index, and a stale read only under-reports available slots/items —
//   conservative in both directions (a spurious "full"/"empty" retries; it
//   can never fabricate a slot).
//
//   ApproxSize is producer-exact / consumer-approximate by the same
//   argument, and clamps to 0 against the (possible) torn head>tail view a
//   third observer could see — it is a load-only metric, never a publisher.
#ifndef HAMLET_COMMON_SPSC_QUEUE_H_
#define HAMLET_COMMON_SPSC_QUEUE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

namespace hamlet {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscQueue(size_t min_capacity)
      : mask_(std::bit_ceil(std::max<size_t>(min_capacity, 2)) - 1),
        slots_(std::allocator<T>().allocate(mask_ + 1)) {}

  ~SpscQueue() {
    Consume(ApproxSize());
    std::allocator<T>().deallocate(slots_, mask_ + 1);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side: constructs the next element from `v` (moved from an
  /// rvalue, copied from an lvalue). Returns false when full, in which case
  /// `v` is left intact so the caller can retry.
  template <typename U>
  bool TryPush(U&& v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    std::construct_at(&slots_[tail & mask_], std::forward<U>(v));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty. A moved-from T may keep its
  /// heap storage (std::vector does); Consume destroys the slot, so no
  /// popped payload stays alive inside the ring.
  bool TryPop(T* out) {
    const std::span<T> front = Readable(1)[0];
    if (front.empty()) return false;
    *out = std::move(front[0]);
    Consume(1);
    return true;
  }

  /// Consumer side: pointer to the front element without popping it, or
  /// nullptr when empty. The slot stays owned by the queue until TryPop —
  /// the k-way merge in the multi-producer sequencer peeks every producer
  /// ring to find the minimum timestamp before committing to a pop, and a
  /// shard worker peeks its next control message for the count of events
  /// that precede it.
  const T* Peek() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return nullptr;
    return &slots_[head & mask_];
  }

  /// Consumer side: the first `max` readable elements (all of them, when
  /// fewer are readable) in queue order, as two contiguous spans. The
  /// second is non-empty only when the readable run wraps past the end of
  /// the storage. The elements stay owned by the queue, and the producer
  /// cannot overwrite them, until Consume frees them.
  std::array<std::span<T>, 2> Readable(size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t ready = tail_.load(std::memory_order_acquire) - head;
    const size_t n = static_cast<size_t>(std::min<uint64_t>(ready, max));
    const size_t begin = static_cast<size_t>(head & mask_);
    const size_t first = std::min(n, capacity() - begin);
    return {std::span<T>(slots_ + begin, first),
            std::span<T>(slots_, n - first)};
  }

  /// Consumer side: frees the first `n` readable elements (n must not
  /// exceed what Readable last returned).
  void Consume(size_t n) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    for (uint64_t i = head; i < head + n; ++i) {
      std::destroy_at(&slots_[i & mask_]);  // a no-op for plain events
    }
    head_.store(head + n, std::memory_order_release);
  }

  /// Number of occupied slots at some recent instant. Exact from the
  /// producer thread between its own pushes (the consumer can only have
  /// drained more).
  size_t ApproxSize() const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  /// Producer side: elements pushed so far.
  uint64_t pushed() const { return tail_.load(std::memory_order_relaxed); }

  /// Consumer side: elements popped or consumed so far.
  uint64_t popped() const { return head_.load(std::memory_order_relaxed); }

  size_t capacity() const { return mask_ + 1; }

 private:
  // The hot path is two atomic uint64 ops per element; a type change that
  // demoted either index to a locking atomic would silently serialize every
  // shard hand-off, so lock-freeness is a compile-time invariant.
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "SpscQueue's ring indices must be lock-free atomics");

  const size_t mask_;
  T* const slots_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_SPSC_QUEUE_H_
