/**
 * @file
 * Minimal fixed-size thread pool with a blocking parallel-for, used
 * to spread independent work over cores: the repository's
 * simulations, the segments of the SimPoint BBV walk, and the
 * per-parameter classifier jobs of training and leave-one-program-
 * out.
 * Every batch counts in the `pool/` metrics, whoever submits it.
 *
 * Failure semantics: if a job throws, no further unstarted indices
 * are run, the first exception is captured and rethrown on the
 * calling thread once every in-flight job has drained, and the pool
 * remains usable for subsequent batches.  Calling parallelFor from
 * inside one of the pool's own jobs (reentrant use) throws
 * std::logic_error; concurrent calls from distinct external threads
 * are safe and simply serialize.
 *
 * Hand-off: parallelFor returns only after every worker that took
 * the batch has stopped claiming from it, so a worker can never
 * claim an index of the next batch through the previous batch's
 * function.
 */

#ifndef ADAPTSIM_COMMON_THREAD_POOL_HH
#define ADAPTSIM_COMMON_THREAD_POOL_HH

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hh"

namespace adaptsim
{

/** Fixed pool executing parallelFor batches. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0/1 runs inline (no threads). */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run fn(0) … fn(n-1) across the pool; blocks until all done.
     * fn must be safe to call concurrently for distinct indices.
     *
     * @throws std::logic_error on reentrant use (fn calling back
     *         into parallelFor on the same pool).
     * @throws the first exception any job threw, after all running
     *         jobs have drained; remaining unstarted indices are
     *         skipped.  The pool stays usable afterwards.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn)
        ADAPTSIM_EXCLUDES(submitMutex_, mutex_);

    unsigned numThreads() const { return threads_; }

  private:
    void workerLoop(unsigned worker_index);

    /** Claim-and-run indices until exhausted; returns claim count. */
    std::size_t runJobs(const std::function<void(std::size_t)> &fn,
                        std::size_t n);

    unsigned threads_;
    std::vector<std::thread> workers_;

    /** Serializes concurrent external parallelFor callers. */
    Mutex submitMutex_ ADAPTSIM_ACQUIRED_BEFORE(mutex_);

    /** Guards the batch state below; wake_ signals workers about a
     *  new batch (or shutdown), done_ signals the submitter that the
     *  batch drained. */
    Mutex mutex_;
    CondVar wake_;
    CondVar done_;
    const std::function<void(std::size_t)> *job_
        ADAPTSIM_GUARDED_BY(mutex_) = nullptr;
    std::size_t jobSize_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    /** Batch publish time, for the queue-wait metric. */
    std::chrono::steady_clock::time_point batchSubmit_
        ADAPTSIM_GUARDED_BY(mutex_);
    std::atomic<std::size_t> nextIndex_{0};
    std::atomic<bool> abort_{false};
    std::size_t remaining_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    /** Workers that took the current batch and have not finished
     *  claiming from it.  parallelFor returns only when this is 0,
     *  so no worker still holds a batch when the next one resets
     *  nextIndex_: a stale claim cannot happen. */
    std::size_t holders_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    std::exception_ptr firstError_ ADAPTSIM_GUARDED_BY(mutex_);
    std::uint64_t generation_ ADAPTSIM_GUARDED_BY(mutex_) = 0;
    bool stopping_ ADAPTSIM_GUARDED_BY(mutex_) = false;
};

} // namespace adaptsim

#endif // ADAPTSIM_COMMON_THREAD_POOL_HH
