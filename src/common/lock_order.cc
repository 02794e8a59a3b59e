#include "src/common/lock_order.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/mutex.h"

namespace dfs {
namespace {

struct HeldLock {
  LockLevel level;
  uint64_t tag;
  const char* name;
  bool shared;
};

thread_local std::vector<HeldLock> g_held;

// Acquisition counts are per thread, so the hot path writes a counter no
// other thread writes instead of one atomic every thread contends on.
struct CheckCounters {
  // LOCK-EXEMPT(leaf): guards the registry only; taken when a thread starts
  // or stops counting and by checked_count(), with nothing acquired inside.
  Mutex mu;
  std::vector<const std::atomic<uint64_t>*> live GUARDED_BY(mu);
  uint64_t exited GUARDED_BY(mu) = 0;  // counts folded in by exited threads
};

// Never destroyed: threads may still exit after static destruction starts.
CheckCounters& Counters() {
  static CheckCounters* counters = new CheckCounters;
  return *counters;
}

// Set on the thread's first counted acquisition; cleared, with `t_exited`
// set, when the thread's count folds into the registry at thread exit.
thread_local std::atomic<uint64_t>* t_count = nullptr;
thread_local bool t_exited = false;

class ThreadCount {
 public:
  ThreadCount() {
    CheckCounters& c = Counters();
    MutexLock lock(c.mu);
    c.live.push_back(&count_);
  }
  ThreadCount(const ThreadCount&) = delete;
  ThreadCount& operator=(const ThreadCount&) = delete;
  ~ThreadCount() {
    CheckCounters& c = Counters();
    MutexLock lock(c.mu);
    c.exited += count_.load(std::memory_order_relaxed);
    c.live.erase(std::find(c.live.begin(), c.live.end(), &count_));
    t_count = nullptr;
    t_exited = true;
  }
  std::atomic<uint64_t>* count() { return &count_; }

 private:
  std::atomic<uint64_t> count_{0};
};

void CountCheck() {
  if (t_count == nullptr) {
    if (t_exited) {
      // A lock taken by another thread-local's destructor after this
      // thread's count was folded in: count it straight into the registry.
      CheckCounters& c = Counters();
      MutexLock lock(c.mu);
      c.exited += 1;
      return;
    }
    static thread_local ThreadCount owner;
    t_count = owner.count();
  }
  // This thread is the only writer: a plain load and store, no locked add.
  t_count->store(t_count->load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

std::atomic<bool> LockOrderChecker::enabled_{true};

void LockOrderChecker::Enable(bool on) { enabled_.store(on, std::memory_order_release); }

bool LockOrderChecker::enabled() { return enabled_.load(std::memory_order_acquire); }

uint64_t LockOrderChecker::checked_count() {
  CheckCounters& c = Counters();
  MutexLock lock(c.mu);
  uint64_t total = c.exited;
  for (const std::atomic<uint64_t>* count : c.live) {
    total += count->load(std::memory_order_relaxed);
  }
  return total;
}

void LockOrderChecker::NoteAcquire(LockLevel level, uint64_t tag, const char* name,
                                   bool shared) {
  if (!enabled()) {
    return;
  }
  CountCheck();
  if (!g_held.empty()) {
    const HeldLock& top = g_held.back();
    // Shared acquisitions obey the same partial order as exclusive ones: a
    // reader blocking behind a writer is still a lock wait, so only hierarchy
    // position matters for deadlock freedom.
    bool ok = (static_cast<uint32_t>(level) > static_cast<uint32_t>(top.level)) ||
              (level == top.level && tag > top.tag);
    if (!ok) {
      std::fprintf(stderr,
                   "LOCK ORDER VIOLATION: acquiring %s%s (level %u, tag %llu) while holding "
                   "%s%s (level %u, tag %llu)\n",
                   name, shared ? " [shared]" : "", static_cast<uint32_t>(level),
                   static_cast<unsigned long long>(tag), top.name,
                   top.shared ? " [shared]" : "", static_cast<uint32_t>(top.level),
                   static_cast<unsigned long long>(top.tag));
      std::abort();
    }
  }
  g_held.push_back(HeldLock{level, tag, name, shared});
}

void LockOrderChecker::NoteRelease(LockLevel level, uint64_t tag) {
  if (!enabled()) {
    return;
  }
  // Locks are normally released LIFO, but std::unique_lock allows out-of-order
  // release; erase the matching entry searching from the top.
  for (auto it = g_held.rbegin(); it != g_held.rend(); ++it) {
    if (it->level == level && it->tag == tag) {
      g_held.erase(std::next(it).base());
      return;
    }
  }
  // Releasing a lock acquired while the checker was disabled: ignore.
}

}  // namespace dfs
