/**
 * @file
 * Tests of the pluggable performance-model seam (src/sim).
 *
 * The load-bearing guarantees: the "cycle" backend is bit-identical
 * to driving uarch::Core directly (frozen golden matrix), the
 * "interval" backend tracks cycle-level IPC within a frozen error
 * bound across the whole 26-program suite, and the registry is safe
 * under concurrent lookup (exercised under TSan in tier-1).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "harness/gather.hh"
#include "power/metrics.hh"
#include "sim/cycle_level_model.hh"
#include "sim/interval_model.hh"
#include "sim/perf_model.hh"
#include "uarch/core.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

namespace
{

constexpr std::uint64_t programLength = 100000;

/** A warm memo over @p trace. */
uarch::WarmMemo
memoOf(std::vector<isa::MicroOp> trace)
{
    return uarch::WarmMemo(
        std::make_shared<const std::vector<isa::MicroOp>>(
            std::move(trace)));
}

uarch::SimResult
runBackend(const sim::PerfModel &model, const std::string &bench,
           const space::Configuration &cfg,
           std::uint64_t warm = 8000, std::uint64_t detail = 4000)
{
    const auto wl = workload::specBenchmark(bench, programLength);
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(cfg);
    const auto session = model.makeSession(cc, wp);
    auto memo = memoOf(wl.generate(40000 - warm, warm));
    session->warm(memo);
    return model.run(*session, wl.generate(40000, detail));
}

} // namespace

TEST(Sim, RegistryHasBuiltins)
{
    const auto &cycle = sim::perfModel("cycle");
    EXPECT_STREQ(cycle.name(), "cycle");
    // Tag 0 is the reference model's: stored cycle records carry
    // it, so they stay valid for exactly this backend.
    EXPECT_EQ(cycle.cacheTag(), 0u);

    const auto &interval = sim::perfModel("interval");
    EXPECT_STREQ(interval.name(), "interval");
    EXPECT_NE(interval.cacheTag(), cycle.cacheTag());

    EXPECT_EXIT((void)sim::perfModel("no-such-backend"),
                ::testing::ExitedWithCode(1),
                "known: cycle, interval");

    // A null backend means "cycle".
    EXPECT_EQ(&sim::resolvePerfModel(nullptr), &cycle);
    EXPECT_EQ(&sim::resolvePerfModel(&interval), &interval);
}

TEST(Sim, CycleBackendBitIdenticalToDirectCore)
{
    // The same frozen width/IQ golden matrix as
    // test_pipeline.cc:GoldenResultsAreFrozen — re-homing the
    // pipeline behind the seam must not change a single cycle.
    struct Golden
    {
        const char *bench;
        int width;
        int iq;
        std::uint64_t cycles;
        std::uint64_t committedOps;
        std::uint64_t mispredicts;
        std::uint64_t dcMisses;
        std::uint64_t wrongPathOps;
    };
    const Golden goldens[] = {
        {"eon", 4, -1, 4609ull, 4000ull, 13ull, 104ull, 381ull},
        {"gcc", 4, -1, 12152ull, 4000ull, 232ull, 816ull, 9580ull},
        {"mcf", 4, -1, 18507ull, 4000ull, 56ull, 1675ull, 3497ull},
        {"swim", 2, -1, 7212ull, 4000ull, 28ull, 422ull, 596ull},
        {"crafty", 4, 8, 9674ull, 4000ull, 196ull, 159ull, 8188ull},
        {"sixtrack", 8, -1, 4438ull, 4000ull, 13ull, 103ull,
         934ull},
        {"art", 4, 16, 5927ull, 4000ull, 6ull, 246ull, 249ull},
    };
    const auto &model = sim::perfModel("cycle");
    for (const auto &g : goldens) {
        auto cfg = harness::paperBaselineConfig();
        cfg.setValue(space::Param::Width, g.width);
        if (g.iq > 0)
            cfg.setValue(space::Param::IqSize, g.iq);
        const auto r = runBackend(model, g.bench, cfg);
        EXPECT_EQ(r.cycles, g.cycles) << g.bench;
        EXPECT_EQ(r.events.committedOps, g.committedOps) << g.bench;
        EXPECT_EQ(r.events.mispredicts, g.mispredicts) << g.bench;
        EXPECT_EQ(r.events.dcMisses, g.dcMisses) << g.bench;
        EXPECT_EQ(r.events.wrongPathOps, g.wrongPathOps) << g.bench;
    }
}

TEST(Sim, CycleBackendMatchesDirectCoreEventForEvent)
{
    // Beyond the golden fields: a full EventCounts comparison on one
    // workload, driving the exact same warm/run sequence both ways.
    const auto wl = workload::specBenchmark("gcc", programLength);
    const auto cfg = harness::paperBaselineConfig();
    const auto cc = uarch::CoreConfig::fromConfiguration(cfg);
    const auto warm = wl.generate(32000, 8000);
    const auto trace = wl.generate(40000, 4000);

    workload::WrongPathGenerator wp_direct(wl.averageParams(),
                                           wl.seed() ^ 0x57a71cULL);
    uarch::Core core(cc, wp_direct);
    core.warm(warm);
    const auto direct = core.run(trace);

    workload::WrongPathGenerator wp_seam(wl.averageParams(),
                                         wl.seed() ^ 0x57a71cULL);
    const auto &model = sim::perfModel("cycle");
    const auto session = model.makeSession(cc, wp_seam);
    auto memo = memoOf(warm);
    session->warm(memo);
    const auto seam = model.run(*session, trace);

    EXPECT_EQ(seam.cycles, direct.cycles);
    EXPECT_EQ(seam.events.fetchedOps, direct.events.fetchedOps);
    EXPECT_EQ(seam.events.squashedOps, direct.events.squashedOps);
    EXPECT_EQ(seam.events.icMisses, direct.events.icMisses);
    EXPECT_EQ(seam.events.l2Misses, direct.events.l2Misses);
    EXPECT_EQ(seam.events.bpredLookups, direct.events.bpredLookups);
    EXPECT_EQ(seam.events.iqWakeups, direct.events.iqWakeups);
    EXPECT_EQ(seam.events.rfReads, direct.events.rfReads);
    EXPECT_EQ(seam.events.occRobSum, direct.events.occRobSum);
}

TEST(Sim, IntervalDeterministicAndCommitsTrace)
{
    const auto &model = sim::perfModel("interval");
    const auto cfg = harness::paperBaselineConfig();
    const auto a = runBackend(model, "gcc", cfg);
    const auto b = runBackend(model, "gcc", cfg);
    EXPECT_EQ(a.events.committedOps, 4000u);
    EXPECT_GT(a.cycles, 0u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events.mispredicts, b.events.mispredicts);
    EXPECT_EQ(a.events.dcMisses, b.events.dcMisses);
}

TEST(Sim, IntervalIpcWithinPhysicalBounds)
{
    const auto &model = sim::perfModel("interval");
    auto cfg = harness::paperBaselineConfig();
    for (const char *bench : {"eon", "mcf", "swim", "crafty"}) {
        const auto r = runBackend(model, bench, cfg);
        EXPECT_GT(r.events.ipc(), 0.0) << bench;
        EXPECT_LE(r.events.ipc(), 4.0) << bench;
    }
    cfg.setValue(space::Param::Width, 2);
    EXPECT_LE(runBackend(model, "sixtrack", cfg).events.ipc(), 2.0);
}

TEST(Sim, IntervalAccuracyBoundedOnSuite)
{
    // The fidelity contract: across the full 26-program suite on the
    // paper baseline, interval-analysis IPC stays close to the
    // cycle-level reference.  The bounds are frozen from the
    // reference build; loosening them is a fidelity regression.
    const auto &cycle = sim::perfModel("cycle");
    const auto &interval = sim::perfModel("interval");
    const auto cfg = harness::paperBaselineConfig();

    double abs_err_sum = 0.0;
    double worst = 0.0;
    std::string worst_bench;
    const auto &names = workload::specNames();
    for (const auto &bench : names) {
        const double ref =
            runBackend(cycle, bench, cfg).events.ipc();
        const double est =
            runBackend(interval, bench, cfg).events.ipc();
        const double err = std::abs(est - ref);
        abs_err_sum += err;
        if (err > worst) {
            worst = err;
            worst_bench = bench;
        }
    }
    const double mae = abs_err_sum / double(names.size());
    std::printf("interval backend: IPC MAE %.4f, worst %.4f (%s)\n",
                mae, worst, worst_bench.c_str());

    // Frozen accuracy bounds (reference build measured MAE 0.041,
    // worst 0.124 on apsi/applu; see DESIGN.md §11).
    EXPECT_LT(mae, 0.06);
    EXPECT_LT(worst, 0.18);
}

TEST(Sim, EmptyTraceYieldsEmptyResult)
{
    // Regression: zero-instruction detail windows (phase boundaries
    // can produce them) must return a well-defined zero result, not
    // divide by zero.
    const auto wl = workload::specBenchmark("gcc", programLength);
    const auto cc = uarch::CoreConfig::fromConfiguration(
        harness::paperBaselineConfig());
    for (const char *name : {"cycle", "interval"}) {
        const auto &model = sim::perfModel(name);
        workload::WrongPathGenerator wp(wl.averageParams(),
                                        wl.seed() ^ 0x57a71cULL);
        const auto session = model.makeSession(cc, wp);
        auto memo = memoOf(wl.generate(32000, 8000));
        session->warm(memo);
        const auto r = model.run(*session, {});
        EXPECT_EQ(r.cycles, 0u) << name;
        EXPECT_EQ(r.events.committedOps, 0u) << name;
        const auto m = power::computeMetrics(session->config(), r.events);
        EXPECT_EQ(m.instructions, 0.0) << name;
        EXPECT_TRUE(std::isfinite(m.joules)) << name;
    }
}

TEST(Sim, RegistryConcurrentLookupIsSafe)
{
    // First-touch construction of the backend table races with
    // lookups from worker threads in real benches; tier-1 runs this
    // under TSan.
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&ok]() {
            for (int i = 0; i < 200; ++i) {
                const auto &cycle = sim::perfModel("cycle");
                const auto &interval = sim::perfModel("interval");
                if (cycle.cacheTag() != interval.cacheTag() &&
                    &sim::resolvePerfModel(nullptr) == &cycle)
                    ok.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(ok.load(), 8 * 200);
}
