/**
 * @file
 * Tests of the multi-core chip model.  (A one-core processor runs on
 * a backend's own core session; its goldens are pinned in
 * test_pipeline, test_sim and test_controller.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "control/chip_controller.hh"
#include "harness/gather.hh"
#include "uarch/chip.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::uarch;

namespace
{

constexpr std::uint64_t programLength = 100000;

/** A small-LLC 2-core chip geometry that makes contention visible
 *  on 4000-µop traces. */
ChipConfig
smallChip(const space::Configuration &cfg, std::size_t cores)
{
    auto chip = ChipConfig::homogeneous(cfg, cores);
    chip.llcBytes = 256 * 1024;
    chip.llcBanks = 2;
    chip.llcMshrsPerBank = 2;
    return chip;
}

struct CoRunSetup
{
    std::vector<workload::Workload> workloads;
    std::vector<std::unique_ptr<workload::WrongPathGenerator>> wps;
    std::vector<workload::WrongPathGenerator *> wpp;
    std::vector<std::vector<isa::MicroOp>> warm, detail;
    std::vector<std::span<const isa::MicroOp>> warmTraces, traces;
};

CoRunSetup
coRunSetup(const std::vector<std::string> &benches)
{
    CoRunSetup s;
    for (const auto &b : benches) {
        s.workloads.push_back(
            workload::specBenchmark(b, programLength));
        const auto &wl = s.workloads.back();
        s.wps.push_back(
            std::make_unique<workload::WrongPathGenerator>(
                wl.averageParams(), wl.seed() ^ 0x57a71cULL));
        s.warm.push_back(wl.generate(32000, 8000));
        s.detail.push_back(wl.generate(40000, 4000));
    }
    for (auto &wp : s.wps)
        s.wpp.push_back(wp.get());
    for (auto &w : s.warm)
        s.warmTraces.emplace_back(w);
    for (auto &d : s.detail)
        s.traces.emplace_back(d);
    return s;
}

} // namespace

TEST(Chip, FewerThanTwoCoresPanics)
{
    const auto wl = workload::specBenchmark("gcc", programLength);
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    EXPECT_DEATH(
        Chip(ChipConfig::homogeneous(harness::paperBaselineConfig(), 1),
             {&wp}),
        "at least two cores");
}

TEST(Chip, CoRunIsDeterministic)
{
    auto runOnce = [] {
        auto s = coRunSetup({"mcf", "gcc"});
        Chip chip(smallChip(harness::paperBaselineConfig(), 2),
                  s.wpp);
        chip.run(s.warmTraces);
        return chip.run(s.traces);
    };
    const auto a = runOnce();
    const auto b = runOnce();
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
        EXPECT_EQ(a.cores[c].events.llcAccesses,
                  b.cores[c].events.llcAccesses);
        EXPECT_EQ(a.occupancyShare[c], b.occupancyShare[c]);
    }
}

TEST(Chip, CoRunShowsInterference)
{
    // The controlled comparison: the same core, same chip geometry,
    // with and without a co-runner.  Contention (bank queueing, LLC
    // competition) can only slow the measured core down.  Each chip
    // warms up on a timed run of the warm-up traces.
    const std::span<const isa::MicroOp> idle;
    auto solo = coRunSetup({"mcf", "gcc"});
    Chip alone(smallChip(harness::paperBaselineConfig(), 2),
               solo.wpp);
    alone.run({solo.warmTraces[0], idle});
    const auto solo_res = alone.run({solo.traces[0], idle});

    auto both = coRunSetup({"mcf", "gcc"});
    Chip chip(smallChip(harness::paperBaselineConfig(), 2),
              both.wpp);
    chip.run(both.warmTraces);
    const auto corun = chip.run(both.traces);

    EXPECT_EQ(solo_res.cores[0].events.committedOps, 4000u);
    EXPECT_EQ(corun.cores[0].events.committedOps, 4000u);
    EXPECT_EQ(corun.cores[1].events.committedOps, 4000u);
    // Co-run IPC below solo IPC on the contended core.
    EXPECT_GT(corun.cores[0].cycles, solo_res.cores[0].cycles);
    // Both cores saw LLC traffic and hold part of the cache.
    EXPECT_GT(corun.cores[0].events.llcAccesses, 0u);
    EXPECT_GT(corun.cores[1].events.llcAccesses, 0u);
    EXPECT_GT(corun.occupancyShare[0], 0.0);
    EXPECT_GT(corun.occupancyShare[1], 0.0);
    EXPECT_LE(corun.occupancyShare[0] + corun.occupancyShare[1],
              1.0 + 1e-12);
    // Queue cycles are the direct contention signal.
    EXPECT_GT(corun.cores[0].events.llcQueueCycles +
                  corun.cores[1].events.llcQueueCycles,
              0u);
    // The controller's shared-level miss ratio is each core's own
    // LLC misses over its own LLC accesses.
    const auto interference = control::interferenceOf(corun);
    for (std::size_t c = 0; c < 2; ++c) {
        const auto &ev = corun.cores[c].events;
        EXPECT_EQ(interference[c].sharedMissRatio,
                  double(ev.llcMisses) / double(ev.llcAccesses))
            << c;
    }
}

TEST(Chip, ReconfigureCoreKeepsElapsedAndLlcContents)
{
    auto s = coRunSetup({"mcf", "gcc"});
    Chip chip(smallChip(harness::paperBaselineConfig(), 2), s.wpp);
    chip.run(s.warmTraces);
    chip.run(s.traces);
    const Cycles elapsed0 = chip.elapsed(0);
    ASSERT_GT(elapsed0, 0u);
    const double before = chip.llc().occupancyShare(1);
    ASSERT_GT(before, 0.0);

    auto narrow = harness::paperBaselineConfig();
    narrow.setValue(space::Param::Width, 2);
    chip.reconfigureCore(0, narrow);

    // The core restarted cold but its clock and the shared LLC
    // contents (including the *other* core's lines) survived.
    EXPECT_EQ(chip.elapsed(0), elapsed0);
    EXPECT_EQ(chip.llc().occupancyShare(1), before);
    const auto res2 = chip.run(s.traces);
    EXPECT_EQ(res2.cores[0].events.committedOps, 4000u);
}
