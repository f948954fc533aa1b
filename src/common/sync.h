#ifndef RSTORE_COMMON_SYNC_H_
#define RSTORE_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

namespace rstore {

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops on other compilers).
//
// These drive Clang's -Wthread-safety static analysis: data members tagged
// RSTORE_GUARDED_BY(mu) may only be touched while `mu` is held, functions
// tagged RSTORE_REQUIRES(mu) may only be called with `mu` held, and the
// acquire/release tags on the primitives below let the compiler track which
// locks are held on every path. Violations are compile errors under
// `-Wthread-safety -Werror=thread-safety` (RSTORE_THREAD_SAFETY=ON, the
// default when building with Clang). See DESIGN.md "Locking discipline".
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define RSTORE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define RSTORE_THREAD_ANNOTATION__(x)
#endif

/// Marks a class as a lockable capability ("mutex" names it in diagnostics).
#define RSTORE_CAPABILITY(x) RSTORE_THREAD_ANNOTATION__(capability(x))
/// Marks an RAII class whose constructor acquires and destructor releases.
#define RSTORE_SCOPED_CAPABILITY RSTORE_THREAD_ANNOTATION__(scoped_lockable)
/// Data member may only be accessed while the given capability is held.
#define RSTORE_GUARDED_BY(x) RSTORE_THREAD_ANNOTATION__(guarded_by(x))
/// Pointee (not the pointer) is protected by the given capability.
#define RSTORE_PT_GUARDED_BY(x) RSTORE_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Function acquires the capability (exclusive / shared).
#define RSTORE_ACQUIRE(...) \
  RSTORE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RSTORE_ACQUIRE_SHARED(...) \
  RSTORE_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (exclusive / shared / either).
#define RSTORE_RELEASE(...) \
  RSTORE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RSTORE_RELEASE_SHARED(...) \
  RSTORE_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RSTORE_RELEASE_GENERIC(...) \
  RSTORE_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define RSTORE_TRY_ACQUIRE(...) \
  RSTORE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
/// Caller must hold the capability (exclusive / shared) to call this.
#define RSTORE_REQUIRES(...) \
  RSTORE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define RSTORE_REQUIRES_SHARED(...) \
  RSTORE_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (the function acquires it itself).
#define RSTORE_EXCLUDES(...) \
  RSTORE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow, e.g. callbacks invoked under a lock).
#define RSTORE_ASSERT_CAPABILITY(x) \
  RSTORE_THREAD_ANNOTATION__(assert_capability(x))
/// Function returns a reference to the given capability.
#define RSTORE_RETURN_CAPABILITY(x) \
  RSTORE_THREAD_ANNOTATION__(lock_returned(x))
/// Opts a function out of the analysis (adapters around unannotated code).
#define RSTORE_NO_THREAD_SAFETY_ANALYSIS \
  RSTORE_THREAD_ANNOTATION__(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lock-rank table.
//
// Every Mutex/SharedMutex is constructed with a rank. In debug builds a
// thread-local held-lock stack RSTORE_DCHECKs that ranks are acquired in
// strictly decreasing order, so any two code paths that could deadlock by
// taking the same pair of locks in opposite orders fail immediately — with
// the full held stack in the message — even in a single-threaded test.
// Equal ranks never nest, which also catches re-entrant self-deadlock on a
// non-recursive mutex.
//
// Higher rank = outer lock (acquired first). Keep this table the single
// source of truth for lock ordering; add new ranks with a gap so layers can
// be inserted later.
// ---------------------------------------------------------------------------

enum LockRank : int {
  /// Cluster hinted-handoff queues. Above the stats lock: hint staging /
  /// replay may update stats afterwards, but never the reverse. Never held
  /// across node calls — replay swaps the queue out under the lock, then
  /// writes to nodes with it released.
  kLockRankClusterHints = 410,
  /// Cluster coordinator state (stats); never held across node calls.
  kLockRankCluster = 400,
  /// FileStore table/log state.
  kLockRankFileStore = 300,
  /// MemoryStore table state (innermost storage-engine lock; also the
  /// per-node lock inside a Cluster).
  kLockRankMemoryStore = 200,
  /// ChunkCache shard locks. Below the storage ranks: cache operations never
  /// call into a backend, but a thread may insert into the cache right after
  /// a fetch, and query threads sharing a cache touch its shards at once.
  kLockRankChunkCache = 150,
  /// ParallelFor first-error capture; taken by a worker after its user fn
  /// has thrown (and therefore released whatever it held).
  kLockRankParallelError = 100,
  /// MetricsRegistry name->metric map. Below every subsystem rank: metric
  /// registration may happen on first touch from anywhere (including under a
  /// cache shard lock), and the registry never calls out while holding it.
  /// Updates to registered metrics are lock-free and never take this mutex.
  kLockRankMetrics = 50,
  /// FlightRecorder ring buffers (src/common/flight_recorder.h). Below the
  /// metrics rank: query completion paths may record a flight entry while
  /// holding subsystem locks, and the recorder never calls out (it only
  /// copies POD records) while holding it.
  kLockRankFlightRecorder = 45,
  /// Executor run queue (src/common/executor.h). Below every subsystem rank
  /// so any code path may post work while holding its own locks; the
  /// executor acquires nothing and invokes no user code while holding it —
  /// tasks always run with the queue lock released.
  kLockRankExecutor = 40,
  /// Future/Promise shared state (src/common/executor.h). Continuations and
  /// blocked getters observe the value only after `ready` flips under this
  /// lock; completion releases it before invoking any continuation, so no
  /// user code ever runs under a future lock.
  kLockRankFuture = 30,
  /// Locks that never nest with anything (two leaf locks cannot nest).
  kLockRankLeaf = 0,
};

namespace sync_internal {

// Debug-only held-lock registry (compiled out under NDEBUG). `mu` is only
// used as an identity token; the registry never dereferences it.
#ifndef NDEBUG
void CheckRankBeforeAcquire(const void* mu, int rank, const char* name);
void RecordAcquired(const void* mu, int rank, const char* name);
void RecordReleased(const void* mu, const char* name);
/// Number of locks the calling thread currently holds (for tests).
int HeldLockCount();
#else
inline void CheckRankBeforeAcquire(const void*, int, const char*) {}
inline void RecordAcquired(const void*, int, const char*) {}
inline void RecordReleased(const void*, const char*) {}
inline int HeldLockCount() { return 0; }
#endif

}  // namespace sync_internal

/// Annotated exclusive mutex. Construct with a rank from the table above and
/// a name for diagnostics; prefer the RAII MutexLock over manual
/// Lock/Unlock.
class RSTORE_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank = kLockRankLeaf, const char* name = "mutex")
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RSTORE_ACQUIRE() {
    sync_internal::CheckRankBeforeAcquire(this, rank_, name_);
    mu_.lock();
    sync_internal::RecordAcquired(this, rank_, name_);
  }

  bool TryLock() RSTORE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::RecordAcquired(this, rank_, name_);
    return true;
  }

  void Unlock() RSTORE_RELEASE() {
    sync_internal::RecordReleased(this, name_);
    mu_.unlock();
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

/// Annotated reader/writer mutex. Shared acquisitions obey the same rank
/// discipline as exclusive ones.
class RSTORE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(int rank = kLockRankLeaf,
                       const char* name = "shared_mutex")
      : rank_(rank), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() RSTORE_ACQUIRE() {
    sync_internal::CheckRankBeforeAcquire(this, rank_, name_);
    mu_.lock();
    sync_internal::RecordAcquired(this, rank_, name_);
  }

  void Unlock() RSTORE_RELEASE() {
    sync_internal::RecordReleased(this, name_);
    mu_.unlock();
  }

  void LockShared() RSTORE_ACQUIRE_SHARED() {
    sync_internal::CheckRankBeforeAcquire(this, rank_, name_);
    mu_.lock_shared();
    sync_internal::RecordAcquired(this, rank_, name_);
  }

  void UnlockShared() RSTORE_RELEASE_SHARED() {
    sync_internal::RecordReleased(this, name_);
    mu_.unlock_shared();
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const char* const name_;
};

/// RAII exclusive lock over a Mutex.
class RSTORE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RSTORE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RSTORE_RELEASE_GENERIC() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class RSTORE_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) RSTORE_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  // Generic release: the scope was acquired shared, and plain (exclusive)
  // release on a scoped capability's destructor trips the shared/exclusive
  // mismatch warning.
  ~ReaderLock() RSTORE_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class RSTORE_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) RSTORE_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() RSTORE_RELEASE_GENERIC() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable paired with rstore::Mutex. Wait atomically releases
/// the mutex (updating the rank registry) and re-acquires it before
/// returning, so held-lock bookkeeping stays exact across the wait.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) RSTORE_REQUIRES(mu);

  /// Waits until pred() holds; re-checks on every wakeup.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) RSTORE_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable_any cv_;
};

}  // namespace rstore

#endif  // RSTORE_COMMON_SYNC_H_
