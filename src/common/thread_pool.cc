#include "common/thread_pool.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.hh"

namespace adaptsim
{

namespace
{

/** Pool metrics, registered once per process.  Worker utilisation
 *  is busy.micros / capacity.micros (capacity = batch wall time ×
 *  participating workers), derived by the obs exit report. */
struct PoolMetrics
{
    obs::Counter &batches =
        obs::Registry::global().counter("pool/batches");
    obs::Counter &jobs = obs::Registry::global().counter("pool/jobs");
    obs::Counter &busyMicros =
        obs::Registry::global().counter("pool/busy.micros");
    obs::Counter &capacityMicros =
        obs::Registry::global().counter("pool/capacity.micros");
    obs::Histogram &batchSeconds = obs::spanHistogram("pool/batch");
    obs::Histogram &jobSeconds = obs::spanHistogram("pool/job");
    obs::Histogram &queueWaitSeconds =
        obs::spanHistogram("pool/queue_wait");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics metrics;
    return metrics;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Pool whose job the current thread is executing, if any. */
thread_local const ThreadPool *tls_running_pool = nullptr;

/** RAII marker for "this thread is running jobs of pool p".
 *  Restores the previous marker so nested use of *distinct* pools
 *  (inline or pooled) keeps reentrancy detection correct. */
struct RunningScope
{
    explicit RunningScope(const ThreadPool *p)
        : prev(tls_running_pool)
    {
        tls_running_pool = p;
    }
    ~RunningScope() { tls_running_pool = prev; }
    const ThreadPool *prev;
};

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads)
{
    if (threads_ <= 1)
        return;
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

std::size_t
ThreadPool::runJobs(const std::function<void(std::size_t)> &fn,
                    std::size_t n)
{
    std::size_t claimed = 0;
    for (;;) {
        const std::size_t i =
            nextIndex_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        ++claimed;
        // After a failure, drain the remaining claims without
        // running them so remaining_ still reaches zero.
        if (abort_.load(std::memory_order_relaxed))
            continue;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            fn(i);
        } catch (...) {
            abort_.store(true, std::memory_order_relaxed);
            MutexLock lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        auto &m = poolMetrics();
        const double secs = secondsSince(t0);
        m.jobSeconds.record(secs);
        m.busyMicros.add(
            static_cast<std::uint64_t>(secs * 1e6));
    }
    return claimed;
}

void
ThreadPool::workerLoop(unsigned worker_index)
{
    if (auto *writer = obs::TraceWriter::active())
        writer->nameCurrentThread(
            "pool-worker-" + std::to_string(worker_index));
    std::uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(std::size_t)> *job = nullptr;
        std::size_t n = 0;
        std::chrono::steady_clock::time_point submitted;
        {
            MutexLock lock(mutex_);
            wake_.wait(lock, [&] {
                mutex_.assertHeld();
                return stopping_ || generation_ != seen_generation;
            });
            if (stopping_)
                return;
            seen_generation = generation_;
            job = job_;
            n = jobSize_;
            submitted = batchSubmit_;
            if (job)
                ++holders_;
        }
        // A spurious/late wake-up can observe a batch that already
        // completed and was cleared; there is nothing left to claim.
        if (!job)
            continue;

        poolMetrics().queueWaitSeconds.record(
            std::max(0.0, secondsSince(submitted)));

        std::size_t claimed = 0;
        {
            RunningScope scope(this);
            claimed = runJobs(*job, n);
        }

        {
            MutexLock lock(mutex_);
            remaining_ -= claimed;
            --holders_;
            if (remaining_ == 0 && holders_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (tls_running_pool == this)
        throw std::logic_error(
            "ThreadPool::parallelFor called from inside one of its "
            "own jobs (reentrant use is not supported)");
    if (n == 0)
        return;

    const bool inline_run = threads_ <= 1 || n == 1;
    // Record the batch on every exit path (including rethrow).
    struct BatchGuard
    {
        std::chrono::steady_clock::time_point t0;
        std::uint64_t workers;
        std::size_t jobs;

        ~BatchGuard()
        {
            auto &m = poolMetrics();
            const double secs = secondsSince(t0);
            m.batches.add(1);
            m.jobs.add(jobs);
            m.batchSeconds.record(secs);
            m.capacityMicros.add(
                static_cast<std::uint64_t>(secs * 1e6) * workers);
        }
    } batch_guard{std::chrono::steady_clock::now(),
                  inline_run ? 1u : threads_, n};

    if (inline_run) {
        RunningScope scope(this);
        for (std::size_t i = 0; i < n; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            fn(i);
            auto &m = poolMetrics();
            const double secs = secondsSince(t0);
            m.jobSeconds.record(secs);
            m.busyMicros.add(
                static_cast<std::uint64_t>(secs * 1e6));
        }
        return;
    }

    // One batch at a time; concurrent external callers queue here.
    MutexLock submit(submitMutex_);
    {
        MutexLock lock(mutex_);
        job_ = &fn;
        jobSize_ = n;
        batchSubmit_ = std::chrono::steady_clock::now();
        nextIndex_.store(0, std::memory_order_relaxed);
        abort_.store(false, std::memory_order_relaxed);
        firstError_ = nullptr;
        remaining_ = n;
        ++generation_;
    }
    wake_.notify_all();

    std::exception_ptr error;
    {
        MutexLock lock(mutex_);
        done_.wait(lock, [&] {
            mutex_.assertHeld();
            return remaining_ == 0 && holders_ == 0;
        });
        job_ = nullptr;
        jobSize_ = 0;
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace adaptsim
