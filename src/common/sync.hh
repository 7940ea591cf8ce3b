/**
 * @file
 * Annotated synchronisation primitives.
 *
 * Thin wrappers over the standard-library primitives that carry the
 * clang thread-safety attributes from common/thread_annotations.hh,
 * so the `-DADAPTSIM_THREAD_SAFETY=ON` build can prove lock
 * discipline statically.  libstdc++'s std::mutex / std::lock_guard /
 * std::unique_lock are unannotated, so guarding members with them
 * directly would make every access a false positive; all locked
 * state under src/ therefore uses these types (the lint rule
 * mutex-annotated enforces it).
 *
 * Design notes:
 *  - Mutex::assertHeld() is a no-op capability assertion for code
 *    the analysis cannot follow into — chiefly lambda bodies such as
 *    condition-variable wait predicates, which always run with the
 *    lock held but are analysed as separate unannotated functions.
 *  - MutexLock is a scoped capability with explicit unlock()/lock()
 *    so the repository's append fast path (drop the repository lock,
 *    write under the per-phase file lock, reacquire) stays visible
 *    to the analysis.
 *  - CondVar deliberately offers only the predicate wait() overload:
 *    waiting without a predicate invites lost-wakeup and
 *    spurious-wakeup bugs (the lint rule condvar-predicate bans it
 *    tree-wide).
 */

#ifndef ADAPTSIM_COMMON_SYNC_HH
#define ADAPTSIM_COMMON_SYNC_HH

#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/thread_annotations.hh"

namespace adaptsim
{

class CondVar;

/** A std::mutex that is a clang thread-safety capability. */
class ADAPTSIM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ADAPTSIM_ACQUIRE() { raw_.lock(); }
    void unlock() ADAPTSIM_RELEASE() { raw_.unlock(); }
    bool try_lock() ADAPTSIM_TRY_ACQUIRE(true)
    {
        return raw_.try_lock();
    }

    /** No-op assertion that the calling context holds this mutex;
     *  use at the top of lambdas (e.g. wait predicates) that
     *  touch ADAPTSIM_GUARDED_BY state, where the analysis cannot
     *  see the enclosing lock. */
    void assertHeld() const ADAPTSIM_ASSERT_CAPABILITY(this) {}

  private:
    friend class CondVar;
    friend class MutexLock;

    // The one wrapped raw mutex in the tree.
    mutable std::mutex raw_; // lint:allow(mutex-annotated)
};

/** Scoped lock of a Mutex (annotated std::unique_lock).  unlock() /
 *  lock() support the drop-and-reacquire fast paths; destruction
 *  releases the mutex if still held. */
class ADAPTSIM_SCOPED_CAPABILITY MutexLock
{
  public:
    /** Const reference so mutable mutex members of objects reached
     *  through const accessors lock without casts. */
    explicit MutexLock(const Mutex &mutex) ADAPTSIM_ACQUIRE(mutex)
        : lock_(mutex.raw_)
    {
    }

    ~MutexLock() ADAPTSIM_RELEASE() = default;

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Temporarily release the mutex (must currently be held). */
    void unlock() ADAPTSIM_RELEASE() { lock_.unlock(); }

    /** Reacquire after unlock(). */
    void lock() ADAPTSIM_ACQUIRE() { lock_.lock(); }

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lock_;
};

/** Condition variable usable only with a predicate, via MutexLock.
 *  The predicate runs with the lock held; if it reads guarded state,
 *  open it with `mutex.assertHeld();` so the analysis knows. */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Block until pred() holds (handles spurious wakeups).  There
     *  is deliberately no predicate-less overload. */
    template <typename Pred>
    void
    wait(MutexLock &lock, Pred pred)
    {
        cv_.wait(lock.lock_, std::move(pred));
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    // Wrapped by the predicate-only API above.
    std::condition_variable cv_; // lint:allow(mutex-annotated)
};

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_SYNC_HH
