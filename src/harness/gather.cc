#include "harness/gather.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "harness/gather_scheduler.hh"
#include "obs/obs.hh"
#include "sim/perf_model.hh"
#include "space/sampling.hh"

namespace adaptsim::harness
{

namespace
{

/** Compact wall-time rendering for progress lines. */
std::string
prettySeconds(double s)
{
    char buf[32];
    if (s < 90.0)
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    else
        std::snprintf(buf, sizeof(buf), "%lum%02lus",
                      static_cast<unsigned long>(s / 60.0),
                      static_cast<unsigned long>(std::fmod(s, 60.0)));
    return buf;
}

/** Gather evals + profiling features for one phase (Sec. V-C). */
GatheredPhase
gatherOnePhase(EvalRepository &repo,
               const std::vector<space::Configuration> &shared,
               const phase::Phase &ph,
               std::uint64_t program_length,
               std::uint64_t warm_length,
               const GatherOptions &options)
{
    GatheredPhase g;
    g.phase = ph;
    g.spec = PhaseSpec{ph.workload, program_length,
                       ph.startInst, warm_length,
                       ph.lengthInsts};

    // 1. Shared uniform sample.
    auto evals = repo.evaluateBatch(g.spec, shared, options.backend);
    auto record = [&](const space::Configuration &cfg,
                      const EvalRecord &r) {
        g.evals.push_back(ml::ConfigEval{cfg, r.efficiency});
    };
    for (std::size_t i = 0; i < shared.size(); ++i)
        record(shared[i], evals[i]);

    auto best_of = [&]() {
        const ml::ConfigEval *best = &g.evals.front();
        for (const auto &e : g.evals) {
            if (e.efficiency > best->efficiency)
                best = &e;
        }
        return best->config;
    };

    // 2. Local neighbourhood of the best point found so far.
    if (options.localNeighbours > 0) {
        Rng rng(options.seed ^
                (std::hash<std::string>{}(ph.workload) +
                 ph.index * 0x9e37ULL));
        const auto neighbours = space::localNeighbours(
            rng, best_of(), options.localNeighbours);
        const auto n_evals =
            repo.evaluateBatch(g.spec, neighbours, options.backend);
        for (std::size_t i = 0; i < neighbours.size(); ++i)
            record(neighbours[i], n_evals[i]);
    }

    // 3. One-at-a-time sweep around the refined best.
    if (options.oneAtATimeSweep) {
        const auto sweep = space::oneAtATimeSweep(best_of());
        const auto s_evals =
            repo.evaluateBatch(g.spec, sweep, options.backend);
        for (std::size_t i = 0; i < sweep.size(); ++i)
            record(sweep[i], s_evals[i]);
    }

    // 4. Profiling-configuration counters.
    if (options.profileFeatures)
        g.features = repo.profile(g.spec);
    return g;
}

/** The phase's classification signature when already computed by
 *  SimPoint extraction; nullptr for hand-made phases (which then
 *  classify as novel and take the full path). */
const phase::Bbv *
readySignature(const phase::Phase &ph)
{
    return ph.signature.opCount() > 0 ? &ph.signature : nullptr;
}

/** Replace-or-append @p eff for @p cfg in @p evals: reused memo
 *  samples and fresh probe/sweep measurements never duplicate a
 *  configuration, and re-probing an exact-spec recurrence leaves
 *  the eval list identical to the original characterisation. */
void
upsertEval(std::vector<ml::ConfigEval> &evals,
           const space::Configuration &cfg, double eff)
{
    const std::uint64_t code = cfg.encode();
    for (auto &e : evals) {
        if (e.config.encode() == code) {
            e.efficiency = eff;
            return;
        }
    }
    evals.push_back(ml::ConfigEval{cfg, eff});
}

/**
 * Satisfy a recognised phase from its memo entry: reuse the recorded
 * neighbourhood, re-measure the entry's top configuration(s) on this
 * interval, and spend fresh simulation only on the one-at-a-time
 * sweep around the incumbent best.  Returns nullopt when the probe
 * says the memo cannot be trusted here — efficiency drift beyond
 * the tolerance — and the caller re-characterises in full.
 */
std::optional<GatheredPhase>
gatherFromMemo(EvalRepository &repo, GatherScheduler &sched,
               const GatherScheduler::Lookup &hit,
               const phase::Phase &ph, const PhaseSpec &spec,
               const GatherOptions &options)
{
    const GatherScheduler::Memo &memo = hit.memo;
    if (memo.evals.empty())
        return std::nullopt;

    // Probe the entry's best configurations on THIS interval.
    std::vector<std::pair<std::uint64_t, double>> ranked =
        memo.evals;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    const std::size_t n_probe =
        std::min(sched.options().probes, ranked.size());
    std::vector<ml::ConfigEval> probed;
    double worst_drift = 0.0;
    for (std::size_t i = 0; i < n_probe; ++i) {
        const auto cfg = space::Configuration::decode(ranked[i].first);
        const double eff =
            repo.evaluate(spec, cfg, options.backend).efficiency;
        const double expect = ranked[i].second;
        const double drift = std::abs(eff - expect) /
                             std::max(std::abs(expect), 1e-12);
        worst_drift = std::max(worst_drift, drift);
        probed.push_back(ml::ConfigEval{cfg, eff});
    }

    const double tol = sched.options().tolerance;
    if (tol < 0.0 || worst_drift > tol)
        return std::nullopt;

    GatheredPhase g;
    g.phase = ph;
    g.spec = spec;
    g.evals.reserve(memo.evals.size() + probed.size());
    for (const auto &[code, eff] : memo.evals) {
        g.evals.push_back(ml::ConfigEval{
            space::Configuration::decode(code), eff});
    }
    for (const auto &p : probed)
        upsertEval(g.evals, p.config, p.efficiency);

    // One-at-a-time sweep around the incumbent best — the only
    // batch simulation a recognised phase pays for.
    if (options.oneAtATimeSweep) {
        const ml::ConfigEval *best = &g.evals.front();
        for (const auto &e : g.evals) {
            if (e.efficiency > best->efficiency)
                best = &e;
        }
        const auto sweep = space::oneAtATimeSweep(best->config);
        const auto s_evals =
            repo.evaluateBatch(spec, sweep, options.backend);
        for (std::size_t i = 0; i < sweep.size(); ++i)
            upsertEval(g.evals, sweep[i], s_evals[i].efficiency);
    }

    // The profiling counters transfer with the phase signature; a
    // recognised phase skips the counter run entirely.
    g.features = memo.features;
    return g;
}

} // namespace

ml::PhaseData
GatheredPhase::toPhaseData(counters::FeatureSet set) const
{
    ml::PhaseData data;
    data.workload = phase.workload;
    data.phaseIndex = phase.index;
    data.weight = phase.weight;
    data.features = set == counters::FeatureSet::Advanced ?
        features.advanced : features.basic;
    data.evals = evals;
    return data;
}

space::Configuration
paperBaselineConfig()
{
    // Table III.
    return space::Configuration::fromValues(
        {4, 144, 48, 32, 160, 4, 1, 16384, 1024, 24,
         64 * 1024, 32 * 1024, 1024 * 1024, 12});
}

std::vector<space::Configuration>
sharedConfigPool(const GatherOptions &options)
{
    Rng rng(options.seed);
    auto pool =
        space::uniformRandomSet(rng, options.sharedRandomConfigs);
    // The paper's Table III baseline is always part of the pool so
    // the best-static search has the classic candidate available.
    pool.push_back(paperBaselineConfig());
    return space::dedupe(std::move(pool));
}

std::vector<GatheredPhase>
gatherTrainingData(EvalRepository &repo,
                   const std::vector<phase::Phase> &phases,
                   std::uint64_t program_length,
                   std::uint64_t warm_length,
                   const GatherOptions &options)
{
    const auto shared = sharedConfigPool(options);

    // Per-call scheduler over the repository's index unless the
    // caller shares one across gathers.  A phase the index does not
    // recognise takes the full sampling path, so a cold gather over
    // an empty index is the pre-memo gather, bit for bit.
    std::unique_ptr<GatherScheduler> own_scheduler;
    GatherScheduler *sched = options.scheduler;
    if (!sched) {
        own_scheduler = std::make_unique<GatherScheduler>(
            GatherScheduler::indexPathFor(repo));
        sched = own_scheduler.get();
    }
    // Memo entries only transfer between gathers on one backend.
    const std::uint64_t backend =
        sim::resolvePerfModel(options.backend).cacheTag();

    std::vector<GatheredPhase> out;
    out.reserve(phases.size());

    // Per-run per-class timing for the ETA: recognised phases cost
    // orders of magnitude less than novel ones, so one uniform
    // per-phase mean (the old estimator — worse, a process-wide
    // histogram mean polluted by earlier gathers) over-predicts a
    // warm gather by the miss/hit cost ratio.
    double hit_seconds = 0.0, miss_seconds = 0.0;
    std::size_t hit_count = 0, miss_count = 0;

    const auto gather_t0 = std::chrono::steady_clock::now();
    for (const auto &ph : phases) {
        const auto phase_t0 = std::chrono::steady_clock::now();
        bool was_hit = false;
        {
            OBS_SPAN("gather/phase");
            const PhaseSpec spec{ph.workload, program_length,
                                 ph.startInst, warm_length,
                                 ph.lengthInsts};
            const phase::Bbv *sig = readySignature(ph);
            std::optional<GatheredPhase> g;
            bool recognised = false;
            if (sig) {
                if (const auto hit = sched->lookup(backend, spec, *sig)) {
                    recognised = true;
                    g = gatherFromMemo(repo, *sched, *hit, ph, spec,
                                       options);
                    if (g) {
                        was_hit = true;
                        OBS_COUNTER("gather/memo/hit").add(1);
                        OBS_COUNTER("gather/memo/reused_evals")
                            .add(hit->memo.evals.size());
                    } else {
                        OBS_COUNTER("gather/memo/escalated").add(1);
                    }
                }
            }
            if (!g) {
                if (sig && !recognised)
                    OBS_COUNTER("gather/memo/miss").add(1);
                g = gatherOnePhase(repo, shared, ph, program_length,
                                   warm_length, options);
                if (sig)
                    sched->record(backend, spec, *sig, *g);
            }
            out.push_back(std::move(*g));
            // Phase boundaries are durable checkpoints: everything
            // buffered by the incremental flusher is committed here.
            repo.flush();
        }

        const double phase_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - phase_t0)
                .count();
        if (was_hit) {
            hit_seconds += phase_seconds;
            ++hit_count;
        } else {
            miss_seconds += phase_seconds;
            ++miss_count;
        }

        if (options.progress) {
            const std::size_t done = out.size();
            const std::size_t step =
                std::max<std::size_t>(1, phases.size() / 20);
            if (done % step == 0 || done == phases.size()) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() -
                        gather_t0)
                        .count();
                // Two-class ETA: pre-classify the remaining phases
                // against the memo index and cost each class at this
                // run's own observed mean.
                std::size_t rem_hits = 0;
                for (std::size_t j = done; j < phases.size(); ++j) {
                    const auto &rem = phases[j];
                    const phase::Bbv *rsig = readySignature(rem);
                    if (!rsig)
                        continue;
                    const PhaseSpec rspec{rem.workload, program_length,
                                          rem.startInst, warm_length,
                                          rem.lengthInsts};
                    if (sched->wouldHit(backend, rspec, *rsig))
                        ++rem_hits;
                }
                const std::size_t rem_misses =
                    phases.size() - done - rem_hits;
                const double mean_miss =
                    miss_count > 0 ? miss_seconds / double(miss_count)
                                   : elapsed / double(done);
                const double mean_hit =
                    hit_count > 0 ? hit_seconds / double(hit_count)
                                  : 0.0;
                const double eta = double(rem_misses) * mean_miss +
                                   double(rem_hits) * mean_hit;
                inform("gather: ", done, "/", phases.size(),
                       " phases, memo ", hit_count, " hit/",
                       miss_count, " miss, elapsed ",
                       prettySeconds(elapsed), ", eta ",
                       prettySeconds(eta));
            }
        }
    }
    sched->save();
    return out;
}

} // namespace adaptsim::harness
