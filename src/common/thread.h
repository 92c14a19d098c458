// Thread wrapper: the only place in src/ allowed to spawn OS threads.
//
// Runtime code outside src/common/ must use hamlet::Thread instead of raw
// std::thread (enforced by tools/lint/). Centralizing thread creation keeps
// the concurrency surface enumerable: every thread in the system is either
// a Session shard worker, the MpscIngestHub sequencer, or a test/bench
// driver — and each one's role shows up in the thread-safety capability map
// (see docs/STATIC_ANALYSIS.md).
//
// The wrapper is intentionally thin: same move semantics as std::thread,
// but join-on-destruction (std::jthread's sane default, without requiring
// C++20's stop_token machinery) so a detached-thread leak can't be written
// by accident.
#ifndef HAMLET_COMMON_THREAD_H_
#define HAMLET_COMMON_THREAD_H_

#include <thread>
#include <utility>

namespace hamlet {

/// Joinable-by-default thread. No Detach() on purpose: every thread in the
/// runtime has an owner that outlives it and shuts it down explicitly.
class Thread {
 public:
  Thread() = default;

  template <typename Fn, typename... Args>
  explicit Thread(Fn&& fn, Args&&... args)
      : thread_(std::forward<Fn>(fn), std::forward<Args>(args)...) {}

  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    if (this != &other) {
      if (thread_.joinable()) thread_.join();
      thread_ = std::move(other.thread_);
    }
    return *this;
  }

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() {
    if (thread_.joinable()) thread_.join();
  }

  bool Joinable() const { return thread_.joinable(); }
  void Join() { thread_.join(); }

 private:
  std::thread thread_;
};

}  // namespace hamlet

#endif  // HAMLET_COMMON_THREAD_H_
