/**
 * @file
 * Runtime tests of the annotated synchronisation wrappers in
 * common/sync.hh: mutual exclusion through Mutex/MutexLock, the
 * drop-and-reacquire cycle, try_lock and predicate-only CondVar
 * waits.  The clang thread-safety build checks these types
 * statically; this file checks that the wrappers actually delegate to
 * the underlying primitives.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/sync.hh"

namespace
{

using adaptsim::CondVar;
using adaptsim::Mutex;
using adaptsim::MutexLock;

TEST(Sync, MutexLockProvidesMutualExclusion)
{
    Mutex mutex;
    long counter = 0;
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                MutexLock lock(mutex);
                ++counter;
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(Sync, MutexLockLocksConstMutexMember)
{
    // Locking through a const reference (mutable mutex members read
    // from const accessors) must compile and exclude.
    struct Holder
    {
        mutable Mutex mutex;
        int value = 7;

        int
        get() const
        {
            MutexLock lock(mutex);
            return value;
        }
    };
    const Holder h;
    EXPECT_EQ(h.get(), 7);
}

TEST(Sync, MutexLockUnlockRelockCycle)
{
    Mutex mutex;
    MutexLock lock(mutex);
    lock.unlock();
    // While dropped, another thread can take the mutex.
    bool taken = false;
    std::thread peer([&] {
        MutexLock peer_lock(mutex);
        taken = true;
    });
    peer.join();
    EXPECT_TRUE(taken);
    lock.lock(); // reacquire; destructor releases
}

TEST(Sync, TryLockReflectsContention)
{
    Mutex mutex;
    EXPECT_TRUE(mutex.try_lock());
    // Held (by this thread): a peer's try_lock must fail.
    bool peer_got = true;
    std::thread peer([&] { peer_got = mutex.try_lock(); });
    peer.join();
    EXPECT_FALSE(peer_got);
    mutex.unlock();
}

TEST(Sync, CondVarPredicateWaitHandsOff)
{
    Mutex mutex;
    CondVar cv;
    bool ready = false;
    int observed = 0;

    std::thread consumer([&] {
        MutexLock lock(mutex);
        cv.wait(lock, [&] {
            mutex.assertHeld();
            return ready;
        });
        observed = 42;
    });
    {
        MutexLock lock(mutex);
        ready = true;
    }
    cv.notify_one();
    consumer.join();
    EXPECT_EQ(observed, 42);
}

} // namespace
