// Multi-producer ingest hub: N per-producer SPSC rings merged into ONE
// time-ordered stream by a single sequencer thread.
//
// The sharded runtime's ingress contract is single-producer: one caller
// thread validates global event order and stages events to shard queues.
// MpscIngestHub lifts that to N concurrent producers WITHOUT a global lock
// on the push path: each producer owns a private SPSC ring
// (src/common/spsc_queue.h) plus one published lower bound, and the
// sequencer runs a k-way merge across the rings.
//
// One owner. The sequencer alone owns the ROSTER — the list of rings it
// merges — and every piece of merge state: the largest released time, the
// floor that departed producers leave behind, the roster itself. Nothing a
// producer does changes the roster; the roster never changes during a scan.
//
// The bound. Every admitted slot publishes `next_min`, the smallest time
// its producer may still push: t+1 after pushing t (a producer's own stream
// is strictly increasing), w after a producer-side watermark w. The
// sequencer releases the globally smallest buffered element e exactly when
// e.time <= the bound of every OTHER roster slot: no producer can later
// push anything earlier, so the release order equals the order of a single
// merged stream. The FRONTIER — min over the roster of (front element time,
// or next_min when the ring is empty) — is the merge horizon; after the
// sequencer drains until stuck it bounds every released time, so it is a
// legal watermark for the merged stream.
//
// Admission. A producer thread Requests a free slot (under the hub mutex,
// the only lock in the hub) and waits in AwaitAdmission; the sequencer
// admits requested slots between merge rounds (AdmitRequested), at
//     max(largest released time + 1, the caller's floor)
// — the runtime passes its last broadcast watermark — so a joiner can never
// be admitted below anything already released or broadcast, and it joins
// the roster before the next scan rather than in the middle of one.
//
// Departure in stream order. CloseSlot is a flag the producer sets after
// its last push and bound (release); the sequencer reads the flag before
// it peeks the ring, so a closed slot seen empty is drained. Only then does
// the sequencer take it off the roster, fold its final bound into the floor
// and hand the slot back to the free list. With the roster empty the
// frontier is that floor: a departed producer's last watermark still
// reaches the merge, and it can never pass an element still in a ring.
//
// What the hub does NOT do: validate. Producers enforce their own ordering
// gates upstream; cross-producer violations (duplicate timestamps) surface
// as ordinary ordering-gate rejections on the merged stream downstream.
//
// Threading: Request / AwaitAdmission / open_producers may be called from
// any thread. After AwaitAdmission, exactly ONE thread uses that slot's
// TryPush / PublishBound / CloseSlot. Exactly one thread at a time (the
// sequencer) calls AdmitRequested / TryNext / Frontier.
#ifndef HAMLET_COMMON_MPSC_INGEST_H_
#define HAMLET_COMMON_MPSC_INGEST_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/mutex.h"
#include "src/common/spsc_queue.h"

namespace hamlet {

/// See file comment. `T` needs a public integral `.time` member (the merge
/// key) and must be movable; the sharded runtime instantiates it with
/// Event. `TimeT` is the timestamp type.
template <typename T, typename TimeT = int64_t>
class MpscIngestHub {
 public:
  static constexpr int kMaxProducers = 64;
  static constexpr TimeT kTimeMax = std::numeric_limits<TimeT>::max();
  static constexpr TimeT kTimeMin = std::numeric_limits<TimeT>::min();

  /// `ring_capacity` is each producer ring's capacity (rounded up to a
  /// power of two, minimum 2). Rings allocate on a slot's first Request and
  /// are reused afterwards.
  explicit MpscIngestHub(size_t ring_capacity)
      : ring_capacity_(ring_capacity < 2 ? 2 : ring_capacity) {
    roster_.reserve(kMaxProducers);
  }

  MpscIngestHub(const MpscIngestHub&) = delete;
  MpscIngestHub& operator=(const MpscIngestHub&) = delete;

  // ------------------------------------------------------------------
  // Hand-over (any thread)
  // ------------------------------------------------------------------

  /// Hands a free slot to the sequencer for admission, or returns -1 when
  /// all kMaxProducers slots are held (a closed slot stays held until the
  /// sequencer has drained it). The caller then waits in AwaitAdmission.
  int Request() HAMLET_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (int i = 0; i < kMaxProducers; ++i) {
      if (state_[i] != kFree) continue;
      if (slots_[i].ring == nullptr) {
        slots_[i].ring = std::make_unique<SpscQueue<T>>(ring_capacity_);
      }
      state_[i] = kRequested;
      requests_.push_back(i);
      return i;
    }
    return -1;
  }

  /// Blocks until the sequencer admitted `slot`; returns the admission
  /// bound, below which the slot's producer must never push.
  TimeT AwaitAdmission(int slot) HAMLET_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (state_[slot] != kAdmitted) admitted_.Wait(lock);
    return slots_[slot].next_min.load(std::memory_order_relaxed);
  }

  /// Slots handed out whose producer has not closed them yet.
  int open_producers() HAMLET_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    int open = 0;
    for (int i = 0; i < kMaxProducers; ++i) {
      if (state_[i] != kFree &&
          !slots_[i].closed.load(std::memory_order_acquire)) {
        ++open;
      }
    }
    return open;
  }

  // ------------------------------------------------------------------
  // Producer side (the one thread owning an admitted slot)
  // ------------------------------------------------------------------

  /// Pushes one element into `slot`'s ring. Returns false when the ring is
  /// full (element intact — the caller decides how to wait; the sequencer
  /// draining guarantees progress). The bound advances to time+1 AFTER the
  /// push is visible, so a bound of t+1 proves event t is in the ring.
  bool TryPush(int slot, T&& v) {
    Slot& s = slots_[static_cast<size_t>(slot)];
    const TimeT t = v.time;
    if (!s.ring->TryPush(std::move(v))) return false;
    PublishBound(slot, t == kTimeMax ? kTimeMax : t + 1);
    return true;
  }

  /// Producer-side watermark: promises this slot will never push an
  /// element with time < `w`. Monotone (a lower bound is ignored).
  void PublishBound(int slot, TimeT w) {
    Slot& s = slots_[static_cast<size_t>(slot)];
    if (w > s.next_min.load(std::memory_order_relaxed)) {
      s.next_min.store(w, std::memory_order_release);
    }
  }

  /// Departure: never blocks. The producer must not touch the slot
  /// afterwards; the sequencer retires it once the ring is drained.
  void CloseSlot(int slot) {
    slots_[static_cast<size_t>(slot)].closed.store(true,
                                                   std::memory_order_release);
  }

  // ------------------------------------------------------------------
  // Sequencer side (one thread at a time)
  // ------------------------------------------------------------------

  /// Admits every requested slot at max(largest released time + 1,
  /// `floor`) and wakes the waiting producers.
  void AdmitRequested(TimeT floor) HAMLET_EXCLUDES(mu_) {
    TimeT bound = released_max_ == kTimeMin ? kTimeMin : released_max_ + 1;
    if (floor > bound) bound = floor;
    MutexLock lock(mu_);
    if (requests_.empty()) return;
    for (const int i : requests_) {
      slots_[i].next_min.store(bound, std::memory_order_relaxed);
      state_[i] = kAdmitted;
      roster_.push_back(i);
    }
    requests_.clear();
    admitted_.NotifyAll();
  }

  /// Pops the globally smallest releasable element into `*out`. Returns
  /// false when nothing is releasable RIGHT NOW: every ring is empty, or
  /// the smallest buffered element is still blocked by another roster
  /// slot's bound. Also retires closed slots it finds drained.
  bool TryNext(T* out) {
    int best = -1;
    TimeT best_time = kTimeMax;
    // Smallest and second-smallest bound, so "min over the OTHER slots"
    // needs no second walk.
    TimeT min1 = kTimeMax, min2 = kTimeMax;
    int min1_slot = -1;
    for (size_t r = 0; r < roster_.size();) {
      const int i = roster_[r];
      Slot& s = slots_[i];
      // Flag, then bound, then peek (see file comment).
      const bool closed = s.closed.load(std::memory_order_acquire);
      const TimeT nm = s.next_min.load(std::memory_order_acquire);
      const T* front = s.ring->Peek();
      if (front == nullptr && closed) {
        Retire(r, nm);  // moves the last roster entry to r
        continue;
      }
      const TimeT bound = front != nullptr ? front->time : nm;
      if (front != nullptr && bound < best_time) {
        best_time = bound;
        best = i;
      }
      if (bound < min1) {
        min2 = min1;
        min1 = bound;
        min1_slot = i;
      } else if (bound < min2) {
        min2 = bound;
      }
      ++r;
    }
    if (best < 0) return false;
    const TimeT min_others = min1_slot == best ? min2 : min1;
    if (best_time > min_others) return false;
    const bool popped = slots_[best].ring->TryPop(out);
    HAMLET_DCHECK(popped);
    (void)popped;
    if (out->time > released_max_) released_max_ = out->time;
    return true;
  }

  /// The merge horizon: min over the roster of (front element time, or the
  /// slot's bound when its ring is empty); with the roster empty, the
  /// largest final bound any retired slot left (kTimeMin before the
  /// first). After TryNext returns false it is >= every released time.
  TimeT Frontier() const {
    if (roster_.empty()) return floor_;
    TimeT frontier = kTimeMax;
    for (const int i : roster_) {
      const Slot& s = slots_[i];
      const TimeT nm = s.next_min.load(std::memory_order_acquire);
      const T* front = s.ring->Peek();
      const TimeT bound = front != nullptr ? front->time : nm;
      if (bound < frontier) frontier = bound;
    }
    return frontier;
  }

 private:
  static_assert(std::atomic<TimeT>::is_always_lock_free,
                "MpscIngestHub bounds must be lock-free atomics; use an "
                "integral TimeT with native atomic support");

  enum State : uint8_t { kFree, kRequested, kAdmitted };

  struct Slot {
    /// Allocated on the slot's first Request, reused afterwards.
    std::unique_ptr<SpscQueue<T>> ring;
    /// Smallest time this slot may still push. Written by the sequencer at
    /// admission (before the producer is woken) and by the owning producer
    /// afterwards; read by the sequencer.
    alignas(64) std::atomic<TimeT> next_min{kTimeMin};
    /// Set by the owning producer after its last push; cleared by the
    /// sequencer when it retires the slot.
    std::atomic<bool> closed{false};
  };

  /// Takes the drained, closed slot at roster position `r` off the roster,
  /// keeps its final bound in the floor and frees the slot.
  void Retire(size_t r, TimeT final_bound) HAMLET_EXCLUDES(mu_) {
    const int i = roster_[r];
    if (final_bound > floor_) floor_ = final_bound;
    roster_[r] = roster_.back();
    roster_.pop_back();
    MutexLock lock(mu_);
    slots_[i].closed.store(false, std::memory_order_relaxed);
    state_[i] = kFree;
  }

  const size_t ring_capacity_;
  std::array<Slot, kMaxProducers> slots_;

  /// The hand-over lock: guards the slot states and the request list;
  /// AwaitAdmission waits on `admitted_`.
  Mutex mu_;
  CondVar admitted_;
  std::array<State, kMaxProducers> state_ HAMLET_GUARDED_BY(mu_) = {};
  /// Requested slots in request order, waiting for AdmitRequested.
  std::vector<int> requests_ HAMLET_GUARDED_BY(mu_);

  // Sequencer-only state.
  std::vector<int> roster_;
  TimeT released_max_ = kTimeMin;
  TimeT floor_ = kTimeMin;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_MPSC_INGEST_H_
