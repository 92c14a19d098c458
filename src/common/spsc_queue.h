// Bounded single-producer / single-consumer ring queue.
//
// The sharded Session ingress path (src/runtime/session.h) moves one
// batch message per staging flush from the caller thread to a shard worker;
// this queue keeps that hand-off wait-free in the common case: one release store per
// TryPush, one release store per TryPop, no locks, no allocation after
// construction. Exactly one thread may call TryPush and exactly one thread
// may call TryPop; the queue itself never blocks — callers decide how to
// wait when it is full (backpressure) or empty (parking).
//
// Layout follows the classic Lamport ring: head_ (next slot to pop) and
// tail_ (next slot to push) monotonically increase and are reduced modulo a
// power-of-two capacity. Each index lives on its own cache line so the
// producer and consumer do not false-share.
//
// Memory-order contract (the whole correctness argument — keep in sync with
// any change to the loads/stores below):
//
//   tail_  is written ONLY by the producer. Its release store in TryPush
//          publishes the slot write that precedes it; the consumer's acquire
//          loads (TryPop/Peek/Empty) synchronize with it, so observing
//          `tail_ > head` implies the slot's payload is fully constructed.
//          The producer's own loads of tail_ are relaxed — it is the only
//          writer, so it always sees its own latest value.
//
//   head_  is the mirror image: written ONLY by the consumer, release store
//          in TryPop publishing the slot RESET (the T{} assignment), so the
//          producer's acquire load in TryPush knows the slot's old payload
//          has been moved out before it overwrites it. The consumer's own
//          loads of head_ are relaxed.
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace hamlet {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscQueue(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap *= 2;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when full, in which case `v` is left
  /// intact so the caller can retry.
  bool TryPush(T&& v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) > mask_) return false;
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    *out = std::move(slots_[head & mask_]);
    // Reset the slot: a moved-from T may legally keep its heap storage
    // (std::vector does), and without the reset up to `capacity` popped
    // payloads would stay alive inside the ring — invisible retained
    // memory for heap-backed message types like event batches.
    slots_[head & mask_] = T{};
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pointer to the front element without popping it, or
  /// nullptr when empty. The slot stays owned by the queue until TryPop —
  /// the k-way merge in the multi-producer sequencer peeks every producer
  /// ring to find the minimum timestamp before committing to a pop.
  const T* Peek() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return nullptr;
    return &slots_[head & mask_];
  }

  /// Consumer-side view; the producer may have pushed more already.
  bool Empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Number of occupied slots at some recent instant. Exact from the
  /// producer thread between its own pushes (the consumer can only have
  /// drained more): the Session front reads 0 as "the worker has taken
  /// every message" and hands it the staged events.
  size_t ApproxSize() const {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  // The hot path is two atomic uint64 ops per message; a type change that
  // demoted either index to a locking atomic would silently serialize every
  // shard hand-off, so lock-freeness is a compile-time invariant.
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "SpscQueue's ring indices must be lock-free atomics");

  std::vector<T> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_SPSC_QUEUE_H_
