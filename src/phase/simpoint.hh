/**
 * @file
 * SimPoint-style phase extraction (Sec. V-A): split a program into
 * fixed-length intervals, cluster their BBVs with k-means, and keep
 * one representative interval per cluster, weighted by cluster size.
 * The paper extracts 10 phases per program.  The BBV walk runs one
 * job per program segment on a local thread pool and is bit-exact
 * for every thread count (DESIGN §10).
 */

#ifndef ADAPTSIM_PHASE_SIMPOINT_HH
#define ADAPTSIM_PHASE_SIMPOINT_HH

#include <string>
#include <vector>

#include "phase/bbv.hh"
#include "workload/workload.hh"

namespace adaptsim::phase
{

/** One extracted representative phase of a program. */
struct Phase
{
    std::string workload;       ///< program name
    std::size_t index;          ///< phase number within the program
    std::uint64_t startInst;    ///< interval start (dynamic position)
    std::uint64_t lengthInsts;  ///< interval length
    double weight;              ///< fraction of intervals represented
    Bbv signature;              ///< centroid-nearest interval BBV
};

/** Phase-extraction parameters. */
struct SimPointOptions
{
    std::uint64_t intervalLength = 10000;  ///< µops per interval
    std::size_t maxPhases = 10;            ///< k for k-means
    std::uint64_t seed = 31415;            ///< clustering seed
};

/**
 * Extract representative phases of @p wl.  Returns up to
 * options.maxPhases phases ordered by interval position.
 */
std::vector<Phase> extractPhases(const workload::Workload &wl,
                                 const SimPointOptions &options);

/**
 * Normalised BBVs of every whole interval of the program.  Each
 * segment overlapping the intervals is one job on a ThreadPool of
 * min(numThreads(), jobs) workers (ADAPTSIM_THREADS); every BBV
 * equals Bbv::ofTrace(wl.generate(i * interval_length,
 * interval_length)) exactly.
 */
std::vector<Bbv> intervalBbvs(const workload::Workload &wl,
                              std::uint64_t interval_length);

} // namespace adaptsim::phase

#endif // ADAPTSIM_PHASE_SIMPOINT_HH
