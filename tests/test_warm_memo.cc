/**
 * @file
 * Tests of the per-phase warm memo (uarch::WarmMemo): the structures
 * it hands out must equal uarch::warmStructures() on fresh ones, field
 * by field, for every configuration, however many configurations
 * share one memo and in whatever order or concurrency they ask.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "harness/gather.hh"
#include "sim/perf_model.hh"
#include "space/sampling.hh"
#include "uarch/core.hh"
#include "uarch/warm.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

namespace
{

constexpr std::uint64_t programLength = 100000;

/** 12k warm µops then 3k detail µops, as in a gather phase. */
struct Phase
{
    std::shared_ptr<const std::vector<isa::MicroOp>> warm;
    std::vector<isa::MicroOp> detail;
    workload::Workload wl;
};

Phase
phaseOf(const std::string &bench)
{
    const auto wl = workload::specBenchmark(bench, programLength);
    return {std::make_shared<const std::vector<isa::MicroOp>>(
                wl.generate(28000, 12000)),
            wl.generate(40000, 3000), wl};
}

/** Fresh structures for @p cc after the reference warm-up. */
uarch::WarmedStructures
referenceWarm(const uarch::CoreConfig &cc,
              const std::vector<isa::MicroOp> &warm)
{
    uarch::WarmedStructures s{
        uarch::CacheHierarchy(cc),
        uarch::BranchPredictor(cc.gshareEntries, cc.btbEntries,
                               uarch::CoreConfig::btbAssoc)};
    uarch::warmStructures(s.caches, s.bpred, warm);
    return s;
}

/** Every cache level and the whole predictor. */
void
expectSameState(const uarch::WarmedStructures &got,
                const uarch::WarmedStructures &want,
                const std::string &what)
{
    EXPECT_TRUE(got.caches.icache() == want.caches.icache()) << what;
    EXPECT_TRUE(got.caches.dcache() == want.caches.dcache()) << what;
    EXPECT_TRUE(got.caches.l2cache() == want.caches.l2cache()) << what;
    EXPECT_TRUE(got.bpred == want.bpred) << what;
}

bool
sameEvents(const uarch::SimResult &a, const uarch::SimResult &b)
{
    // Every field is a std::uint64_t, so there is no padding.
    static_assert(sizeof(uarch::EventCounts) ==
                  50 * sizeof(std::uint64_t));
    return a.cycles == b.cycles &&
           std::memcmp(&a.events, &b.events, sizeof(a.events)) == 0;
}

/** Uniform-random configurations, then the geometry corners: the
 *  smallest and largest I-cache, D-cache and L2 alone, and all five
 *  warmed parameters at their smallest and at their largest. */
std::vector<space::Configuration>
configsToCheck()
{
    std::vector<space::Configuration> configs;
    Rng rng(0x3a4d11e5ULL);
    for (int i = 0; i < 24; ++i)
        configs.push_back(space::uniformRandom(rng));

    const auto &ds = space::DesignSpace::the();
    const space::Param warmed[] = {
        space::Param::ICacheSize, space::Param::DCacheSize,
        space::Param::L2CacheSize, space::Param::GshareSize,
        space::Param::BtbSize};
    auto smallest = harness::paperBaselineConfig();
    auto largest = harness::paperBaselineConfig();
    for (const auto param : warmed) {
        const auto &values = ds.values(param);
        if (param != space::Param::GshareSize &&
            param != space::Param::BtbSize) {
            for (const auto value : {values.front(), values.back()}) {
                auto cfg = harness::paperBaselineConfig();
                cfg.setValue(param, value);
                configs.push_back(cfg);
            }
        }
        smallest.setValue(param, values.front());
        largest.setValue(param, values.back());
    }
    configs.push_back(smallest);
    configs.push_back(largest);
    return configs;
}

} // namespace

TEST(WarmMemo, MatchesWarmStructuresFieldByField)
{
    // One memo per program serves every configuration, so later
    // configurations reuse snapshots that earlier ones built.
    const auto configs = configsToCheck();
    ASSERT_EQ(configs.size(), 32u);
    for (const char *bench : {"gzip", "mcf", "swim", "parser", "eon",
                              "gcc", "art", "sixtrack"}) {
        const Phase ph = phaseOf(bench);
        uarch::WarmMemo memo(ph.warm);
        for (const auto &cfg : configs) {
            const auto cc = uarch::CoreConfig::fromConfiguration(cfg);
            const std::string what =
                std::string(bench) + " " + cfg.toString();
            expectSameState(memo.warm(cc), referenceWarm(cc, *ph.warm),
                            what);

            // A detailed run after either warm-up is the same run.
            workload::WrongPathGenerator wp_ref(
                ph.wl.averageParams(), ph.wl.seed() ^ 0x57a71cULL);
            uarch::Core reference(cc, wp_ref);
            reference.warm(*ph.warm);
            workload::WrongPathGenerator wp_memo(
                ph.wl.averageParams(), ph.wl.seed() ^ 0x57a71cULL);
            uarch::Core memoised(cc, wp_memo, memo.warm(cc));
            EXPECT_TRUE(sameEvents(memoised.run(ph.detail),
                                   reference.run(ph.detail)))
                << what;
        }
    }
}

TEST(WarmMemo, ConcurrentWarmsMatchTheReference)
{
    // Four threads ask one fresh memo for overlapping sizes at once,
    // so snapshot builds race with each other and with readers
    // (tier-1 runs this under TSan).
    const Phase ph = phaseOf("gcc");
    uarch::WarmMemo memo(ph.warm);
    Rng rng(0x7e57ULL);
    std::vector<uarch::CoreConfig> ccs;
    for (int i = 0; i < 32; ++i) {
        ccs.push_back(uarch::CoreConfig::fromConfiguration(
            space::uniformRandom(rng)));
    }

    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<uarch::WarmedStructures>> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < ccs.size(); i += kThreads)
                got[t].push_back(memo.warm(ccs[i]));
        });
    }
    for (auto &th : threads)
        th.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t k = 0; k < got[t].size(); ++k) {
            const auto &cc = ccs[t + k * kThreads];
            expectSameState(got[t][k], referenceWarm(cc, *ph.warm),
                            cc.toString());
        }
    }
}

TEST(WarmMemo, SessionWarmsOnceBeforeItsFirstRun)
{
    // A memo warm-up replaces a session's structures, so it is only
    // defined on a session that has not run yet.
    const Phase ph = phaseOf("gzip");
    const auto cc = uarch::CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
    for (const char *name : {"cycle", "interval"}) {
        const auto &model = sim::perfModel(name);
        workload::WrongPathGenerator wp(ph.wl.averageParams(),
                                        ph.wl.seed() ^ 0x57a71cULL);
        uarch::WarmMemo memo(ph.warm);
        const auto session = model.makeSession(cc, wp);
        (void)model.run(*session, ph.detail);
        EXPECT_DEATH(session->warm(memo), "warms once") << name;
    }
}
