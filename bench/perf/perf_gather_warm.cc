/**
 * @file
 * Warm steady-state gather: the phase set of perf_gather re-gathered
 * against a persistent store + phase-memo index.  The cold seeding
 * pass (timed once, reported as cold_s) characterises every phase
 * and populates `<dir>/gather_memo.idx`; each timed warm repetition
 * then builds a FRESH repository and scheduler over the same
 * directory — nothing in-process carries over — and re-gathers the
 * recurring phases.  Every phase classifies as a memo hit, so the
 * warm gather spends no simulation at all: samples come from the
 * memo entries (backed by the warm `.evc` store), the profiling
 * counters transfer with the signature, and only the per-phase
 * probe touches the repository.
 *
 * A final perf_gather_warm_stats line records the memo traffic and
 * the warm/cold ratio; CI gates on hit rate > 90% and ratio <= 0.2
 * (both timing-ratio and counter based, so shared-runner noise
 * cancels).
 */

#include "perf_harness.hh"

#include <filesystem>

#include "harness/gather.hh"
#include "harness/gather_scheduler.hh"
#include "phase/bbv.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

int
main(int argc, char **argv)
{
    const auto opt = perf::PerfOptions::parse(argc, argv);

    // Same geometry and knobs as perf_gather, so cold_s here is
    // directly comparable to the perf_gather row.
    const std::uint64_t program_length = 400000;
    const std::uint64_t warm_length = 12000;
    const std::uint64_t detail_length = 6000;

    harness::GatherOptions gopt;
    gopt.sharedRandomConfigs = opt.smoke ? 8 : 16;
    gopt.localNeighbours = opt.smoke ? 4 : 8;
    gopt.oneAtATimeSweep = false;
    gopt.progress = false;

    const auto dir = std::filesystem::temp_directory_path() /
                     "adaptsim_perf_gather_warm";
    std::filesystem::remove_all(dir);

    std::vector<phase::Phase> phases;
    const char *programs[] = {"gcc", "crafty"};
    const std::size_t per_program = opt.smoke ? 1 : 3;
    {
        // Phases carry real interval signatures (the memo classifies
        // by them); one throwaway repository generates the traces.
        harness::EvalRepository repo(
            workload::specSuite(program_length), dir.string(), 1);
        for (const char *prog : programs) {
            const auto &wl = repo.workload(prog);
            for (std::size_t i = 0; i < per_program; ++i) {
                phase::Phase ph;
                ph.workload = prog;
                ph.index = i;
                ph.startInst = 40000 + i * 60000;
                ph.lengthInsts = detail_length;
                ph.weight = 1.0 / double(per_program);
                ph.signature = phase::Bbv::ofTrace(
                    *repo.traceCache().get(wl, ph.startInst,
                                           detail_length));
                phases.push_back(ph);
            }
        }
    }

    const auto gather_once = [&]() {
        harness::EvalRepository repo(
            workload::specSuite(program_length), dir.string(), 1);
        harness::GatherScheduler sched(
            harness::GatherScheduler::indexPathFor(repo));
        harness::GatherOptions o = gopt;
        o.scheduler = &sched;
        const auto gathered = harness::gatherTrainingData(
            repo, phases, program_length, warm_length, o);
        double evals = 0.0;
        for (const auto &g : gathered)
            evals += static_cast<double>(g.evals.size());
        const auto st = sched.stats();
        return std::pair<double, harness::GatherScheduler::Stats>(
            evals, st);
    };

    // Cold seeding pass: fresh directory, every phase novel.
    std::filesystem::remove_all(dir);
    const double cold_t0 = perf::nowSeconds();
    const auto cold = gather_once();
    const double cold_s = perf::nowSeconds() - cold_t0;

    // Timed warm repetitions: recurring phases, disk-warm only.
    std::uint64_t hits = 0, misses = 0, escalations = 0;
    double items = 0.0;
    const auto secs = perf::runTimed(opt, items, [&]() {
        const auto [evals, st] = gather_once();
        hits = st.hits;
        misses = st.misses;
        escalations = st.escalations;
        return evals;
    });
    std::filesystem::remove_all(dir);

    perf::emitJson("perf_gather_warm", opt, secs, items, "evals");

    const double warm_s = perf::median(secs);
    const std::uint64_t classified = hits + misses + escalations;
    const double hit_rate =
        classified > 0 ? double(hits) / double(classified) : 0.0;
    std::printf("{\"name\":\"perf_gather_warm_stats\","
                "\"phases\":%zu,\"warm_hits\":%llu,"
                "\"warm_misses\":%llu,\"warm_escalations\":%llu,"
                "\"warm_hit_rate\":%.4f,\"cold_s\":%.6f,"
                "\"warm_cold_ratio\":%.4f,"
                "\"cold_evals\":%.0f,\"warm_evals\":%.0f}\n",
                phases.size(), (unsigned long long)hits,
                (unsigned long long)misses,
                (unsigned long long)escalations, hit_rate, cold_s,
                cold_s > 0.0 ? warm_s / cold_s : 0.0, cold.first,
                items);
    return 0;
}
