// Enforcement of the Section-6 locking hierarchy — runtime and compile time.
//
// The paper avoids deadlock by a partial order on locked resources:
//
//   L1  client high-level cvnode operation lock   (held across the whole op, incl. RPCs)
//   L2  server vnode/token-state lock             (the serialization point)
//   L3  client low-level cvnode state lock        (never held across client-initiated RPCs)
//   L4  server file-I/O lock                      (taken by both normal stores and the
//                                                  special revocation-initiated stores, so a
//                                                  revocation handler holding L3 may call
//                                                  back into the server, Section 6.4)
//
// Every distributed-layer mutex in this codebase is an OrderedMutex carrying one of these
// levels. Two checkers cover it:
//
//   - Runtime (LockOrderChecker): a thread-local stack records the levels currently held;
//     acquiring a lock whose (level, tag) is not strictly greater than the top of the stack
//     aborts the process with a diagnostic. Within one level, multiple locks may be taken in
//     increasing `tag` order (the paper orders multi-vnode operations, e.g. rename, by FID).
//   - Compile time (Clang TSA): OrderedMutex is a CAPABILITY and OrderedLockGuard a
//     SCOPED_CAPABILITY, so GUARDED_BY/REQUIRES annotations over them are checked by
//     -Wthread-safety (the DFS_THREAD_SAFETY build). See src/common/thread_annotations.h.
//
// Leaf mutexes that never call out (buffer-cache internals, statistics) are dfs::Mutex
// (src/common/mutex.h) and are exempt from the hierarchy; in the distributed layer each
// one must carry a `// LOCK-EXEMPT(leaf): <reason>` comment, enforced by
// tools/lint_lock_discipline.py.
#ifndef SRC_COMMON_LOCK_ORDER_H_
#define SRC_COMMON_LOCK_ORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace dfs {

enum class LockLevel : uint32_t {
  kClientHigh = 100,    // L1
  kServerVnode = 200,   // L2
  kClientLow = 300,     // L3
  // Client prefetcher stream map: the readahead window state machine. May be
  // consulted while a cvnode low lock (L3) is held (revocations cancel the
  // file's stream in place), and never holds anything else while held.
  kClientPrefetch = 350,
  kServerIo = 400,      // L4
  // Sub-levels above L4: the token manager's bookkeeping, acquired from RPC
  // handlers that may already hold the vnode (L2) and file-I/O (L4) locks
  // (grant before an op, return after it), but never across an outbound RPC.
  kTokenShard = 450,    // token-manager shard (tag = shard index)
  kHostRegistry = 460,  // read-mostly host/handler table
  // Read-mostly leaf-most maps (VLDB location maps): may be acquired with any
  // of the above held, and never hold anything else while held.
  kVldbMap = 500,
};

// Process-global switch; tests arm it (fatal on violation), benches may disable
// to measure the checker's own overhead.
class LockOrderChecker {
 public:
  static void Enable(bool on);
  static bool enabled();

  // Called by OrderedMutex around lock/unlock. Aborts on violation when
  // enabled. Shared (reader) acquisitions follow the same partial order —
  // hierarchy position, not exclusivity, is what prevents deadlock — and are
  // flagged in diagnostics.
  static void NoteAcquire(LockLevel level, uint64_t tag, const char* name,
                          bool shared = false);
  static void NoteRelease(LockLevel level, uint64_t tag);

  // Total acquisitions checked (for the E9 stress bench's sanity output).
  // Each thread counts its own; this sums the live threads' counts and those
  // exited threads left behind.
  static uint64_t checked_count();

 private:
  static std::atomic<bool> enabled_;
};

// A mutex with a hierarchy level and per-object tag. Same-level locks must be
// acquired in increasing tag order.
class CAPABILITY("ordered_mutex") OrderedMutex {
 public:
  OrderedMutex(LockLevel level, uint64_t tag, const char* name)
      : level_(level), tag_(tag), name_(name) {}

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() ACQUIRE() {
    LockOrderChecker::NoteAcquire(level_, tag_, name_);
    mu_.lock();
  }
  void unlock() RELEASE() {
    mu_.unlock();
    LockOrderChecker::NoteRelease(level_, tag_);
  }
  // The hierarchy is checked (and violations abort) *before* the underlying
  // acquisition, mirroring lock(): aborting while holding the mutex would
  // leave it locked across the abort handler, and the checker's held-stack
  // would already disagree with reality.
  bool try_lock() TRY_ACQUIRE(true) {
    LockOrderChecker::NoteAcquire(level_, tag_, name_);
    if (!mu_.try_lock()) {
      LockOrderChecker::NoteRelease(level_, tag_);
      return false;
    }
    return true;
  }

  // Tells the analysis the lock is held here without checking it at runtime.
  // For code reached only through a lock-holding caller the analysis cannot
  // see across (e.g. lambdas run under a caller's guard); prefer REQUIRES.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  LockLevel level() const { return level_; }
  uint64_t tag() const { return tag_; }

 private:
  // GUARD-EXEMPT: set in the constructor, immutable thereafter.
  LockLevel level_;
  // GUARD-EXEMPT: set in the constructor, immutable thereafter.
  uint64_t tag_;
  const char* name_;
  std::mutex mu_;
};

// std::lock_guard over an OrderedMutex, visible to the static analysis.
class SCOPED_CAPABILITY OrderedLockGuard {
 public:
  explicit OrderedLockGuard(OrderedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~OrderedLockGuard() RELEASE() { mu_.unlock(); }

  OrderedLockGuard(const OrderedLockGuard&) = delete;
  OrderedLockGuard& operator=(const OrderedLockGuard&) = delete;

 private:
  OrderedMutex& mu_;
};

// std::unique_lock-style guard over an OrderedMutex, for condition-variable
// waits (std::condition_variable_any). A wait releases and reacquires through
// lock()/unlock(), so the runtime checker's held-stack stays exact across the
// wait; the static analysis cannot see inside the wait (same caveat as
// UniqueMutexLock in mutex.h) but the lock is held again at every statement
// it checks.
class SCOPED_CAPABILITY OrderedUniqueLock {
 public:
  explicit OrderedUniqueLock(OrderedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~OrderedUniqueLock() RELEASE() { mu_.unlock(); }

  OrderedUniqueLock(const OrderedUniqueLock&) = delete;
  OrderedUniqueLock& operator=(const OrderedUniqueLock&) = delete;

  // BasicLockable, for std::condition_variable_any only — everything else
  // holds the guard for its full scope.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  OrderedMutex& mu_;
};

// Conditionally-acquired OrderedLockGuard: locks when constructed with a
// non-null mutex, a no-op otherwise. Replaces std::optional<OrderedLockGuard>
// at sites like the cross-directory rename second lock and the
// revocation-path store, which the static analysis could not see into. The
// analysis conservatively treats the capability as held for the whole scope
// (the abseil MutexLockMaybe convention) — sound, because the null case only
// ever skips the lock when the guarded state is not touched on that path.
class SCOPED_CAPABILITY MaybeLockGuard {
 public:
  explicit MaybeLockGuard(OrderedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    if (mu_ != nullptr) {
      mu_->lock();
    }
  }
  ~MaybeLockGuard() RELEASE() {
    if (mu_ != nullptr) {
      mu_->unlock();
    }
  }

  MaybeLockGuard(const MaybeLockGuard&) = delete;
  MaybeLockGuard& operator=(const MaybeLockGuard&) = delete;

  bool held() const { return mu_ != nullptr; }

 private:
  OrderedMutex* mu_;
};

// A reader/writer mutex on the hierarchy: shared (reader) acquisitions
// coexist with each other, exclusive (writer) acquisitions are solitary, and
// *both* obey the Section-6 partial order — a reader that could block behind
// a writer is still a lock wait, so hierarchy position is what keeps it
// deadlock-free. For read-mostly tables (the VLDB location map, the token
// manager's host registry) where grants and lookups vastly outnumber
// registrations.
class SHARED_CAPABILITY("shared_ordered_mutex") SharedOrderedMutex {
 public:
  SharedOrderedMutex(LockLevel level, uint64_t tag, const char* name)
      : level_(level), tag_(tag), name_(name) {}

  SharedOrderedMutex(const SharedOrderedMutex&) = delete;
  SharedOrderedMutex& operator=(const SharedOrderedMutex&) = delete;

  void lock() ACQUIRE() {
    LockOrderChecker::NoteAcquire(level_, tag_, name_);
    mu_.lock();
  }
  void unlock() RELEASE() {
    mu_.unlock();
    LockOrderChecker::NoteRelease(level_, tag_);
  }
  void lock_shared() ACQUIRE_SHARED() {
    LockOrderChecker::NoteAcquire(level_, tag_, name_, /*shared=*/true);
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
    LockOrderChecker::NoteRelease(level_, tag_);
  }

  // Tells the analysis the lock is held here without checking it at runtime.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}

  LockLevel level() const { return level_; }
  uint64_t tag() const { return tag_; }

 private:
  // GUARD-EXEMPT: set in the constructor, immutable thereafter.
  LockLevel level_;
  // GUARD-EXEMPT: set in the constructor, immutable thereafter.
  uint64_t tag_;
  const char* name_;
  std::shared_mutex mu_;
};

// Writer guard over a SharedOrderedMutex.
class SCOPED_CAPABILITY SharedOrderedLockGuard {
 public:
  explicit SharedOrderedLockGuard(SharedOrderedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SharedOrderedLockGuard() RELEASE() { mu_.unlock(); }

  SharedOrderedLockGuard(const SharedOrderedLockGuard&) = delete;
  SharedOrderedLockGuard& operator=(const SharedOrderedLockGuard&) = delete;

 private:
  SharedOrderedMutex& mu_;
};

// Reader guard over a SharedOrderedMutex.
class SCOPED_CAPABILITY SharedOrderedReadGuard {
 public:
  explicit SharedOrderedReadGuard(SharedOrderedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedOrderedReadGuard() RELEASE() { mu_.unlock_shared(); }

  SharedOrderedReadGuard(const SharedOrderedReadGuard&) = delete;
  SharedOrderedReadGuard& operator=(const SharedOrderedReadGuard&) = delete;

 private:
  SharedOrderedMutex& mu_;
};

}  // namespace dfs

#endif  // SRC_COMMON_LOCK_ORDER_H_
