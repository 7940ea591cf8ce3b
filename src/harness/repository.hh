/**
 * @file
 * Disk-cached simulation repository.
 *
 * Every (phase, configuration) simulation result is memoised in
 * memory and persisted under ADAPTSIM_DATA_DIR, so the expensive
 * Sec. V-C training-data gather runs once and every bench reuses it.
 * Profiling runs (with the counter bank attached) are cached the same
 * way as serialized feature vectors.
 *
 * Evaluations run through a pluggable performance-model backend
 * (src/sim); results of different fidelities never mix, because the
 * backend's cache tag is part of every in-memory key and on-disk
 * record.  An evaluation and a profiling run are the same phase
 * simulation (simulate(): wrong-path stream, session, warm window,
 * detail window); a profile attaches the counter bank and runs on
 * the cycle-level model, the one backend that drives it.  Sessions warm
 * through a uarch::WarmMemo of their warm window, kept for the most
 * recent window, so a phase's warm trace is replayed once per
 * structure size rather than once per configuration.
 *
 * On-disk format: each PhaseSpec's store is one file, `<key>.evc`: a
 * 24-byte header (8-byte magic "ADSIMEVC", little-endian u64
 * version — now 3 — FNV-1a checksum of the first 16 bytes) followed
 * by fixed-size 88-byte records — config code (u64), backend cache
 * tag (u64), a reserved u64 written as 0, the seven EvalRecord
 * doubles bit-exact, and a per-record FNV-1a checksum.  A record
 * whose reserved slot is nonzero is never served: it is dropped and
 * counted like a corrupt one.
 * The file is created by atomic rename and extended by append+fsync,
 * so completed records survive a `kill -9` at any point; a torn tail
 * or corrupt record fails its checksum and is simply re-simulated,
 * and the damaged file is rewritten whole on the next flush.
 * Unsaved records are buffered per phase and appended every 64
 * records under the phase's own file lock, so concurrent writers to
 * different phases never serialize on one flush.  The store is a
 * regenerable cache: a file of any other version (or a corrupt
 * header) is ignored and atomically replaced on the next flush.
 *
 * The repository keeps no counters of its own: the obs registry is
 * the one record of its activity.  Cache hits count into repo/hit,
 * simulations into repo/miss (and backend/<name>/evals), store
 * records into repo/loaded, repo/flushed and repo/dropped, and warm
 * memos into repo/warm_memo/hits|builds; the repo/simulate and
 * repo/profile spans time the simulations.
 */

#ifndef ADAPTSIM_HARNESS_REPOSITORY_HH
#define ADAPTSIM_HARNESS_REPOSITORY_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.hh"
#include "common/thread_pool.hh"
#include "counters/feature_vector.hh"
#include "space/configuration.hh"
#include "workload/trace_cache.hh"
#include "workload/workload.hh"

namespace adaptsim::sim
{
class PerfModel;
}

namespace adaptsim::uarch
{
struct CoreConfig;
struct SimResult;
class SimObserver;
class WarmMemo;
}

namespace adaptsim::harness
{

/** Identity of one simulated interval of one workload. */
struct PhaseSpec
{
    std::string workload;      ///< program name
    std::uint64_t programLength = 0;
    std::uint64_t startInst = 0;
    std::uint64_t warmLength = 0;
    std::uint64_t detailLength = 0;

    /** Stable cache-file stem for this spec. */
    std::string key() const;
};

/** Cached outcome of one (phase, config) simulation. */
struct EvalRecord
{
    double cycles = 0.0;
    double instructions = 0.0;
    double seconds = 0.0;
    double joules = 0.0;
    double ipc = 0.0;
    double watts = 0.0;
    double efficiency = 0.0;   ///< ips³/W
};

/** Feature vectors from one profiling run. */
struct ProfileRecord
{
    std::vector<double> basic;
    std::vector<double> advanced;
};

/** Cache identity of one evaluation: which backend produced the
 *  result for which configuration.  Different fidelities of the
 *  same configuration are distinct entries. */
struct EvalKey
{
    std::uint64_t backendTag = 0;   ///< sim::PerfModel::cacheTag()
    std::uint64_t code = 0;         ///< space::Configuration::encode()

    bool operator==(const EvalKey &) const = default;
};

/** Mixing hash so (tag, code) pairs spread over the table even
 *  when codes collide across backends. */
struct EvalKeyHash
{
    std::size_t operator()(const EvalKey &k) const
    {
        std::uint64_t h =
            k.code + 0x9e3779b97f4a7c15ULL * (k.backendTag + 1);
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h);
    }
};

/** Memoising simulation evaluator shared by all benches. */
class EvalRepository
{
  public:
    /**
     * @param suite the workload suite (looked up by name).
     * @param data_dir on-disk cache directory (created if absent).
     * @param threads evaluation parallelism.
     */
    EvalRepository(std::vector<workload::Workload> suite,
                   std::string data_dir, unsigned threads);

    ~EvalRepository();

    /**
     * Evaluate one configuration on one phase (cached).
     * @param backend performance model to simulate with; nullptr
     *   selects "cycle".  Results are cached
     *   per backend (fidelities never mix): the record is looked up
     *   and stored under the backend's cacheTag().
     */
    EvalRecord evaluate(const PhaseSpec &spec,
                        const space::Configuration &config,
                        const sim::PerfModel *backend = nullptr)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Evaluate many configurations on one phase, in parallel.
     *  Batches from concurrent callers queue in the pool. */
    std::vector<EvalRecord>
    evaluateBatch(const PhaseSpec &spec,
                  const std::vector<space::Configuration> &configs,
                  const sim::PerfModel *backend = nullptr)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Profiling-configuration run with counters (cached).  The
     *  counter bank needs per-cycle observer callbacks, so it always
     *  runs on the cycle-level model. */
    ProfileRecord profile(const PhaseSpec &spec)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Persist any unsaved results now (incremental flushing also
     *  runs whenever any single phase accumulates 64 unsaved
     *  records, or setFlushEvery()'s count). */
    void flush() ADAPTSIM_EXCLUDES(mutex_);

    const workload::Workload &workload(const std::string &name) const;

    /** Records buffered per phase between incremental flushes
     *  (default 64, minimum 1). */
    void setFlushEvery( // lint:allow(unused-api) crash-safety tests
        std::size_t n) ADAPTSIM_EXCLUDES(mutex_);

    /** Root directory of the on-disk store (fixed at construction);
     *  sibling indices (the gather phase-memo) live alongside it. */
    const std::string &dataDir() const { return dataDir_; }

  private:
    struct PhaseCache
    {
        std::unordered_map<EvalKey, EvalRecord, EvalKeyHash> records;
        /** Records awaiting persistence to the store file. */
        std::vector<std::pair<EvalKey, EvalRecord>> unsaved;
        /** File-append lock: writers flushing different phases never
         *  serialize on one another.  Always acquired after mutex_ or
         *  with mutex_ dropped (the append fast path), never the
         *  other way around. */
        Mutex fileMutex;
        bool loaded = false;
        /** An undamaged current-format store file exists (append
         *  mode); otherwise the next flush writes it atomically from
         *  every in-memory record. */
        bool haveBinaryFile = false;
    };

    /** Simulate @p spec's detail window on @p cc through
     *  @p backend after its warm window, with @p observer attached
     *  (no caching). */
    uarch::SimResult simulate(const PhaseSpec &spec,
                              const uarch::CoreConfig &cc,
                              const sim::PerfModel &backend,
                              uarch::SimObserver *observer = nullptr)
        ADAPTSIM_EXCLUDES(memoMutex_);

    /** The warm memo of @p warm, @p wl's trace of @p length µops
     *  from @p start: the current one, or a new one that replaces
     *  it. */
    std::shared_ptr<uarch::WarmMemo>
    warmMemo(const workload::Workload &wl, std::uint64_t start,
             std::uint64_t length, workload::TracePtr warm)
        ADAPTSIM_EXCLUDES(memoMutex_);

    /** The phase cache stored under @p spec_key (PhaseSpec::key()),
     *  loaded from disk on first use. */
    PhaseCache &cacheFor(const std::string &spec_key)
        ADAPTSIM_REQUIRES(mutex_);
    bool loadBinaryCache(const std::string &path,
                         const std::string &bytes, PhaseCache &cache)
        ADAPTSIM_REQUIRES(mutex_);
    void flushLocked() ADAPTSIM_REQUIRES(mutex_);
    std::string storePath(const std::string &spec_key) const;
    std::string profilePath(const std::string &spec_key) const;

    std::vector<workload::Workload> suite_;
    std::string dataDir_;
    ThreadPool pool_;

    /** One trace per (phase × {warm, detail}) regardless of how
     *  many configurations replay it (thread-safe internally). */
    workload::TraceCache traceCache_;

    /** The memo of the most recent warm window, keyed like the
     *  trace cache.  One is enough: the gather walks phases in turn,
     *  and every worker evaluates the current one. */
    Mutex memoMutex_;
    workload::TraceKey warmKey_ ADAPTSIM_GUARDED_BY(memoMutex_);
    std::shared_ptr<uarch::WarmMemo> warmMemo_
        ADAPTSIM_GUARDED_BY(memoMutex_);

    Mutex mutex_;
    std::unordered_map<std::string, PhaseCache> caches_
        ADAPTSIM_GUARDED_BY(mutex_);
    std::unordered_map<std::string, ProfileRecord> profiles_
        ADAPTSIM_GUARDED_BY(mutex_);
    std::size_t flushEvery_ ADAPTSIM_GUARDED_BY(mutex_) = 64;
};

} // namespace adaptsim::harness

#endif // ADAPTSIM_HARNESS_REPOSITORY_HH
