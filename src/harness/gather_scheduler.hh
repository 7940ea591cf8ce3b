/**
 * @file
 * Phase-memoised gather scheduling (Pac-Sim-style live sampling).
 *
 * The paper's observation — phases recur, reconfiguration happens
 * roughly once every 10 intervals — means a steady-state gather
 * re-simulates behaviour it has already characterised.  The
 * scheduler closes that loop: every fully-gathered phase is recorded
 * in a persistent memo index (signature → characterised PhaseSpec +
 * best-config neighbourhood) keyed by its
 * phase::OnlinePhaseDetector signature, and later gathers classify
 * each incoming phase against the index before dispatching any
 * simulation.  A recognised phase skips the shared-pool resimulation
 * entirely: its samples are satisfied from the memo (whose records
 * the `.evc` store already backs), and the simulation budget is
 * spent only on a probe of the incumbent best plus the
 * one-at-a-time sweep around it.  Hits whose probed efficiency
 * drifts beyond Options::tolerance escalate to full
 * re-characterisation, which overwrites the memo entry.
 *
 * Matching is deliberately asymmetric: entries loaded from a
 * previous run match within Options::threshold, while
 * entries recorded by the running gather itself match only at
 * near-zero distance.  Distinct SimPoint phases of one workload can
 * sit closer than any useful threshold, so within one run only a
 * genuine recurrence (an identical signature) may reuse; across
 * runs, the probe + tolerance escalation is the safety net.
 *
 * The index is serialized alongside the `.evc` store
 * (`<dataDir>/gather_memo.idx`, atomic replace, FNV-checksummed) and
 * a corrupt or truncated file is discarded with a warning — the memo
 * is a cache, never ground truth.
 *
 * The scheduler keeps no traffic counters: the gather counts each
 * classification once, in the obs registry, as gather/memo/hit (with
 * the samples it reused in gather/memo/reused_evals),
 * gather/memo/miss or gather/memo/escalated.
 */

#ifndef ADAPTSIM_HARNESS_GATHER_SCHEDULER_HH
#define ADAPTSIM_HARNESS_GATHER_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hh"
#include "harness/repository.hh"
#include "phase/online_detector.hh"

namespace adaptsim::harness
{

struct GatheredPhase;

/** Thread-safe persistent phase-memo index for gather scheduling. */
class GatherScheduler
{
  public:
    /** Scheduling constants.  Only tests set non-defaults. */
    struct Options
    {
        /** Cross-run signature match distance: Manhattan distance
         *  between L1-normalised BBVs, range [0, 2] (see file
         *  comment). */
        double threshold = 0.25;
        /** Relative efficiency drift of the probed best above which
         *  a hit escalates; negative escalates every hit. */
        double tolerance = 0.1;
        /** Top memo configurations re-measured per recognised
         *  phase (minimum 1). */
        std::size_t probes = 1;
        /** Signature-table capacity per (workload, geometry,
         *  backend) bucket. */
        std::size_t maxPhasesPerBucket = 64;
    };

    /** One characterised phase in the index. */
    struct Memo
    {
        /** Spec the characterisation ran on (the recorded evals and
         *  features belong to this interval, not necessarily the
         *  interval that later matches). */
        PhaseSpec spec;
        /** (configuration code, efficiency) in gather order. */
        std::vector<std::pair<std::uint64_t, double>> evals;
        ProfileRecord features;
    };

    /** A lookup() match: the entry plus how far the query sat. */
    struct Lookup
    {
        Memo memo;
        double distance = 0.0;
    };

    /**
     * @param index_path the serialized index file; loaded now when
     *        present (corrupt files are discarded with a warning)
     *        and rewritten by save().  Empty disables persistence —
     *        the scheduler still memoises within the process.
     */
    GatherScheduler(std::string index_path, Options options);

    /** As above, with the default Options. */
    explicit GatherScheduler(std::string index_path)
        : GatherScheduler(std::move(index_path), Options{})
    {
    }

    /** The conventional index location for a repository's store. */
    static std::string indexPathFor(const EvalRepository &repo);

    /**
     * Classify @p sig against the memo bucket of @p spec's
     * (workload, geometry) as gathered on the backend whose
     * sim::PerfModel::cacheTag() is @p backend.  Returns the matched
     * entry (a copy — the caller works lock-free) or nullopt for a
     * novel phase.  Read-only: the gather counts the hit, miss or
     * escalation once it commits to a path.
     */
    std::optional<Lookup> lookup(std::uint64_t backend,
                                 const PhaseSpec &spec,
                                 const phase::Bbv &sig) const
        ADAPTSIM_EXCLUDES(mutex_);

    /** lookup() without the copy — progress/ETA pre-classification. */
    bool wouldHit(std::uint64_t backend, const PhaseSpec &spec,
                  const phase::Bbv &sig) const
        ADAPTSIM_EXCLUDES(mutex_);

    /**
     * Record a fully-gathered phase.  A signature matching an
     * existing bucket entry overwrites it (re-characterisation /
     * replacement at capacity); otherwise a new entry is allocated
     * until the bucket's signature table is full, after which the
     * nearest entry is replaced.
     */
    void record(std::uint64_t backend, const PhaseSpec &spec,
                const phase::Bbv &sig, const GatheredPhase &gathered)
        ADAPTSIM_EXCLUDES(mutex_);

    /** Total memo entries across all buckets. */
    std::size_t size() const ADAPTSIM_EXCLUDES(mutex_);

    /** Atomically rewrite the index file (no-op without a path).
     *  False when the write failed. */
    bool save() const ADAPTSIM_EXCLUDES(mutex_);

    const Options &options() const { return opt_; }

  private:
    /** Memo entries of one (workload, geometry, backend),
     *  classified by one signature table. */
    struct Bucket
    {
        phase::OnlinePhaseDetector detector;
        std::vector<Memo> entries;
        /** Entry came from a previous run (loaded, not yet
         *  overwritten): eligible for full-threshold matching. */
        std::vector<bool> fromDisk;
    };

    /** Bucket key: evals only transfer between intervals of the
     *  same workload gathered with the same geometry on the same
     *  backend. */
    static std::string bucketKey(std::uint64_t backend,
                                 const PhaseSpec &spec);

    /** Matched entry index in @p b for @p sig, honouring the
     *  asymmetric live/disk thresholds; npos when novel. */
    std::size_t matchIn(const Bucket &b, const phase::Bbv &sig,
                        double *distance) const
        ADAPTSIM_REQUIRES(mutex_);

    void load();
    std::string serializeLocked() const ADAPTSIM_REQUIRES(mutex_);
    bool deserialize(const std::string &bytes)
        ADAPTSIM_REQUIRES(mutex_);

    const std::string path_;
    const Options opt_;

    mutable Mutex mutex_;
    std::map<std::string, Bucket> buckets_ ADAPTSIM_GUARDED_BY(mutex_);
};

} // namespace adaptsim::harness

#endif // ADAPTSIM_HARNESS_GATHER_SCHEDULER_HH
