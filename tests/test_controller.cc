/**
 * @file
 * End-to-end tests of the adaptive controller (Fig. 2 loop).  A
 * single-core processor is the one-core chip, so the single-core
 * cases run ChipController / runStaticChip at N=1.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "control/chip_controller.hh"
#include "counter_delta.hh"
#include "harness/gather.hh"
#include "harness/repository.hh"
#include "ml/trainer.hh"
#include "scratch_dir.hh"
#include "sim/perf_model.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::control;
using adaptsim::test::CounterDelta;

namespace
{

/** An untrained (all-ones weights) model always predicts index 0 —
 *  good enough to exercise the control loop mechanics. */
ml::AdaptivityModel
dummyModel()
{
    return ml::AdaptivityModel(counters::featureDimension(
        counters::FeatureSet::Advanced));
}

/** Knobs for a one-core chip starting on the Table III baseline. */
ChipControllerOptions
soloOptions(std::uint64_t interval_length)
{
    ChipControllerOptions opt;
    opt.intervalLength = interval_length;
    opt.initialConfig = harness::paperBaselineConfig();
    opt.chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 1);
    return opt;
}

/** The whole program pinned to the Table III baseline on a one-core
 *  chip. */
RunStats
runStaticSolo(const workload::Workload &wl,
              std::uint64_t max_instructions,
              std::uint64_t interval_length,
              workload::TraceCache *trace_cache = nullptr)
{
    const auto stats = runStaticChip(
        {&wl}, harness::paperBaselineConfig(),
        uarch::ChipConfig::homogeneous(
            harness::paperBaselineConfig(), 1),
        max_instructions, interval_length, trace_cache);
    return stats.cores.at(0);
}

/** Growth over @p work of every count under "uarch/" and
 *  "control/" that perfbench/layers.cc reads, plus the cycle
 *  backend's evaluations: counters by name, spans by their sample
 *  count. */
template <class Work>
std::map<std::string, std::uint64_t>
perfbenchCounts(Work &&work)
{
    static const char *const counters[] = {
        "uarch/cycles", "uarch/committed_ops",
        "control/reconfigurations", "backend/cycle/evals"};
    static const char *const spans[] = {"uarch/run", "uarch/chip_run",
                                        "control/profile",
                                        "control/predict"};
    auto &reg = obs::Registry::global();
    const auto samples = [&reg](const std::string &span) {
        return reg.histogram(span + ".seconds").stats().count;
    };
    std::map<std::string, std::uint64_t> out;
    for (const char *s : spans)
        out[s] = samples(s);
    const CounterDelta d;
    work();
    for (const char *s : spans)
        out[s] = samples(s) - out[s];
    for (const char *c : counters)
        out[c] = d(c);
    return out;
}

} // namespace

TEST(RunStats, DerivedQuantities)
{
    RunStats s;
    s.instructions = 1000;
    s.seconds = 1e-6;
    s.joules = 2e-6;
    EXPECT_NEAR(s.ips(), 1e9, 1.0);
    EXPECT_NEAR(s.watts(), 2.0, 1e-9);
    EXPECT_NEAR(s.efficiency(), 1e27 / 2.0, 1e18);
}

TEST(Controller, RunStaticAccumulatesAllIntervals)
{
    const auto wl = workload::specBenchmark("gzip", 100000);
    const auto stats = runStaticSolo(wl, 30000, 5000);
    EXPECT_EQ(stats.intervals, 6u);
    EXPECT_EQ(stats.instructions, 30000u);
    EXPECT_GT(stats.seconds, 0.0);
    EXPECT_GT(stats.joules, 0.0);
    EXPECT_GT(stats.efficiency(), 0.0);
}

TEST(Controller, AdaptiveRunExecutesEverything)
{
    const auto wl = workload::specBenchmark("gap", 200000);
    const auto model = dummyModel();
    ChipController controller({&wl}, model, soloOptions(5000));
    const auto stats = controller.run(60000).cores.at(0);

    EXPECT_EQ(stats.intervals, 12u);
    EXPECT_EQ(stats.instructions, 60000u);
    EXPECT_GE(stats.phaseChanges, 1u);   // at least the first phase
    EXPECT_GE(stats.profilingIntervals, 1u);
    EXPECT_EQ(stats.profilingIntervals,
              controller.phasePredictions(0).size());
}

TEST(Controller, TraceCachedRunsMatchUncachedBitExactly)
{
    // Both controller entry points accept an optional shared trace
    // cache; replayed traces must leave every statistic identical.
    const auto wl = workload::specBenchmark("gzip", 100000);
    workload::TraceCache cache;

    const auto plain = runStaticSolo(wl, 30000, 5000);
    const CounterDelta d;
    const auto cached = runStaticSolo(wl, 30000, 5000, &cache);
    EXPECT_EQ(cached.seconds, plain.seconds);
    EXPECT_EQ(cached.joules, plain.joules);
    EXPECT_EQ(cached.instructions, plain.instructions);
    EXPECT_EQ(d("tracecache/misses"), 6u);   // one per interval

    const auto model = dummyModel();
    auto opt = soloOptions(5000);
    ChipController uncached_ctl({&wl}, model, opt);
    const auto a = uncached_ctl.run(30000).cores.at(0);
    opt.traceCache = &cache;   // pre-warmed by the static runs
    ChipController cached_ctl({&wl}, model, opt);
    const CounterDelta cached_run;
    const auto b = cached_ctl.run(30000).cores.at(0);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.joules, b.joules);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.reconfigurations, b.reconfigurations);
    EXPECT_EQ(cached_run("tracecache/misses"), 0u);   // all hits
}

TEST(Controller, ReconfiguresOncePerNewPhaseAtMost)
{
    const auto wl = workload::specBenchmark("gap", 200000);
    const auto model = dummyModel();
    ChipController controller({&wl}, model, soloOptions(5000));
    const auto stats = controller.run(80000).cores.at(0);
    EXPECT_LE(stats.reconfigurations, stats.phaseChanges);
    // The all-zeros prediction differs from the baseline: at least
    // one reconfiguration must have occurred and cost cycles.
    EXPECT_GE(stats.reconfigurations, 1u);
    EXPECT_GT(stats.reconfigCycles, 0u);
}

TEST(Controller, RecurringPhasesReuseStoredPredictions)
{
    // gzip alternates scan/match segments: the same phases recur.
    const auto wl = workload::specBenchmark("gzip", 200000);
    const auto model = dummyModel();
    ChipController controller({&wl}, model, soloOptions(4000));
    const auto stats = controller.run(160000).cores.at(0);
    // Far fewer profiling intervals than total intervals: recurring
    // behaviour must be recognised, not re-profiled.
    EXPECT_LT(stats.profilingIntervals, stats.intervals / 2);
}

TEST(Controller, ProfilingOverheadIsCharged)
{
    const auto wl = workload::specBenchmark("eon", 100000);
    const auto model = dummyModel();
    ChipController controller({&wl}, model, soloOptions(5000));
    const auto stats = controller.run(40000).cores.at(0);
    // Every executed instruction is accounted exactly once.
    EXPECT_EQ(stats.instructions, 40000u);
    EXPECT_GT(stats.joules, 0.0);
}

TEST(Controller, NonObserverBackendProfilesAtCycleLevel)
{
    // The interval backend drives no observer callbacks, so the
    // controller's profiling intervals always run on the cycle-level
    // model.  The phase and reconfiguration decisions therefore
    // follow the same counters on both backends; only the timing and
    // energy of the execution intervals differ.
    const auto wl = workload::specBenchmark("gzip", 200000);
    const auto model = dummyModel();
    auto opt = soloOptions(5000);

    opt.backend = &sim::perfModel("cycle");
    ChipController ref_ctl({&wl}, model, opt);
    const auto ref = ref_ctl.run(60000).cores.at(0);

    opt.backend = &sim::perfModel("interval");
    ChipController int_ctl({&wl}, model, opt);
    const auto got = int_ctl.run(60000).cores.at(0);

    EXPECT_EQ(got.intervals, ref.intervals);
    EXPECT_EQ(got.instructions, ref.instructions);
    EXPECT_EQ(got.phaseChanges, ref.phaseChanges);
    EXPECT_EQ(got.reconfigurations, ref.reconfigurations);
    EXPECT_EQ(got.reconfigCycles, ref.reconfigCycles);
}

TEST(Controller, TrainedModelReconfigurationsMatchFrozenGolden)
{
    // A model trained on wupwise's own intervals predicts a different
    // configuration for each of the three phases the detector finds
    // in the first 120k µops (at intervals 0, 22 and 23), so the core
    // reconfigures twice mid-run, each time right after profiling a
    // new phase.  The frozen seconds pin the accounting order of
    // those intervals: the profile's time is added before the
    // reconfiguration penalty (the other order rounds the last
    // interval one ulp lower).  A weak L2 penalty lets the dozen
    // training phases separate their predictions.
    constexpr std::uint64_t program_length = 200000;
    constexpr std::uint64_t run_insts = 120000;
    constexpr std::uint64_t interval = 5000;
    const auto wl = workload::specBenchmark("wupwise", program_length);

    std::vector<phase::Phase> phases;
    for (std::uint64_t start = 0; start < run_insts; start += interval) {
        phase::Phase ph;
        ph.workload = "wupwise";
        ph.index = phases.size();
        ph.startInst = start;
        ph.lengthInsts = interval;
        ph.weight = double(interval) / double(run_insts);
        phases.push_back(ph);
    }
    harness::GatherOptions gopt;
    gopt.sharedRandomConfigs = 12;
    gopt.localNeighbours = 4;
    gopt.oneAtATimeSweep = false;
    gopt.progress = false;

    const std::string dir =
        test::scratchDir("adaptsim_controller_reconfig_golden");
    std::filesystem::remove_all(dir);
    std::vector<harness::GatheredPhase> gathered;
    {
        harness::EvalRepository repo(
            workload::specSuite(program_length), dir, 1);
        gathered = harness::gatherTrainingData(
            repo, phases, program_length, 12000, gopt);
    }
    std::filesystem::remove_all(dir);
    std::vector<ml::PhaseData> data;
    for (const auto &g : gathered)
        data.push_back(g.toPhaseData(counters::FeatureSet::Advanced));
    ml::TrainerOptions topt;
    topt.lambda = 0.01;
    const auto model = ml::trainModel(data, topt);

    ChipController controller({&wl}, model, soloOptions(interval));
    const RunStats s = controller.run(run_insts).cores.at(0);
    EXPECT_EQ(s.intervals, 24u);
    EXPECT_EQ(s.instructions, run_insts);
    EXPECT_EQ(s.phaseChanges, 3u);
    EXPECT_EQ(s.profilingIntervals, 3u);
    EXPECT_EQ(s.reconfigurations, 3u);
    EXPECT_EQ(s.reconfigCycles, 3063u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.seconds),
              0x3f106eef813fa125ULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.joules),
              0x3f32cc8722df2da0ULL);
}

TEST(ChipController, StaticChipAccumulatesAllIntervalsPerCore)
{
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    const auto chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 2);
    const auto stats =
        runStaticChip({&a, &b}, harness::paperBaselineConfig(), chip,
                      30000, 5000);
    ASSERT_EQ(stats.cores.size(), 2u);
    for (const auto &core : stats.cores) {
        EXPECT_EQ(core.intervals, 6u);
        EXPECT_EQ(core.instructions, 30000u);
        EXPECT_GT(core.seconds, 0.0);
        EXPECT_GT(core.joules, 0.0);
    }
    EXPECT_EQ(stats.totalInstructions(), 60000u);
    EXPECT_GT(stats.meanEfficiency(), 0.0);
    ASSERT_EQ(stats.interference.size(), 2u);
    EXPECT_GT(stats.interference[0].occupancyShare, 0.0);
    EXPECT_GT(stats.interference[1].occupancyShare, 0.0);
}

TEST(ChipController, AdaptiveChipRunsEveryCoreToCompletion)
{
    const auto a = workload::specBenchmark("gap", 200000);
    const auto b = workload::specBenchmark("mcf", 200000);
    const auto model = dummyModel();
    ChipControllerOptions opt;
    opt.intervalLength = 5000;
    opt.initialConfig = harness::paperBaselineConfig();
    opt.chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 2);
    ChipController controller({&a, &b}, model, opt);
    const auto stats = controller.run(60000);

    ASSERT_EQ(stats.cores.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(stats.cores[c].intervals, 12u) << c;
        EXPECT_EQ(stats.cores[c].instructions, 60000u) << c;
        EXPECT_GE(stats.cores[c].profilingIntervals, 1u) << c;
        // Each core keeps its own per-phase prediction table.
        EXPECT_EQ(stats.cores[c].profilingIntervals,
                  controller.phasePredictions(c).size())
            << c;
    }
}

TEST(ChipController, MultiCoreChipNeedsTheCycleBackend)
{
    // Only uarch::Chip models the shared LLC, so a multi-core chip on
    // any other backend is refused rather than approximated.
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    const auto chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 2);
    EXPECT_EXIT((void)runStaticChip({&a, &b},
                                    harness::paperBaselineConfig(),
                                    chip, 10000, 5000, nullptr,
                                    &sim::perfModel("interval")),
                ::testing::ExitedWithCode(1),
                "2-core chip needs the \"cycle\" backend");
}

TEST(ChipController, ZeroIntervalLengthIsFatal)
{
    // Both entry points divide the run into intervals, so a zero
    // length is refused by name rather than dividing by zero.
    const auto wl = workload::specBenchmark("gzip", 100000);
    const auto model = dummyModel();
    EXPECT_EXIT((void)ChipController({&wl}, model, soloOptions(0)),
                ::testing::ExitedWithCode(1),
                "ChipController: intervalLength must be positive");
    EXPECT_EXIT((void)runStaticSolo(wl, 10000, 0),
                ::testing::ExitedWithCode(1),
                "runStaticChip: interval_length must be positive");
}

TEST(ChipController, SingleCoreChipMatchesFrozenSingleCoreGolden)
{
    // A one-core chip is the single-core controller.  These values
    // were recorded from the dedicated single-core controller the
    // one-core chip replaced (gzip, 60k µops in 5k intervals, default
    // backend, dummy model); the N=1 trajectory must keep them bit
    // for bit.
    const auto wl = workload::specBenchmark("gzip", 200000);
    const auto model = dummyModel();
    ChipController chip({&wl}, model, soloOptions(5000));
    const auto got = chip.run(60000);

    ASSERT_EQ(got.cores.size(), 1u);
    const RunStats &s = got.cores[0];
    EXPECT_EQ(s.intervals, 12u);
    EXPECT_EQ(s.instructions, 60000u);
    EXPECT_EQ(s.phaseChanges, 2u);
    EXPECT_EQ(s.reconfigurations, 1u);
    EXPECT_EQ(s.reconfigCycles, 2966u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.seconds),
              0x3f21e41a19a75e0dULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.joules),
              0x3f45b62bdc3fee26ULL);

    // The static reference on the same one-core chip, likewise.
    const auto st = runStaticSolo(wl, 60000, 5000);
    EXPECT_EQ(st.intervals, 12u);
    EXPECT_EQ(st.instructions, 60000u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.seconds),
              0x3f00f9483c15154cULL);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.joules),
              0x3f2e26acc34aaec9ULL);
}

TEST(ChipController, AdaptiveBeatsStaticOnContendedPair)
{
    // mcf + gcc on a deliberately small shared LLC, so the short runs
    // actually contend.  The per-core predictive controller must at
    // least match the static Table III baseline on the same mix.
    constexpr std::uint64_t program_length = 400000;
    constexpr std::uint64_t run_insts = 30000;
    constexpr std::uint64_t interval = 6000;
    const std::vector<std::string> pair = {"mcf", "gcc"};
    const auto base = harness::paperBaselineConfig();
    const auto &cycle = sim::perfModel("cycle");

    auto chip = uarch::ChipConfig::homogeneous(base, pair.size());
    chip.llcBytes = 256 * 1024;
    chip.llcBanks = 4;
    chip.llcMshrsPerBank = 4;

    // Train on a cycle gather whose phases tile [0, run_insts), the
    // region the controller executes, so its per-phase predictions
    // apply to the phases the online detector sees.
    std::vector<phase::Phase> phases;
    const std::size_t per_program = run_insts / interval;
    for (const auto &prog : pair) {
        for (std::size_t i = 0; i < per_program; ++i) {
            phase::Phase ph;
            ph.workload = prog;
            ph.index = i;
            ph.startInst = i * interval;
            ph.lengthInsts = interval;
            ph.weight = 1.0 / double(per_program);
            phases.push_back(ph);
        }
    }
    harness::GatherOptions gopt;
    gopt.sharedRandomConfigs = 16;
    gopt.localNeighbours = 4;
    gopt.oneAtATimeSweep = true;
    gopt.progress = false;
    gopt.backend = &cycle;

    const std::string dir =
        test::scratchDir("adaptsim_chip_controller_test");
    std::filesystem::remove_all(dir);
    std::vector<harness::GatheredPhase> gathered;
    {
        harness::EvalRepository repo(
            workload::specSuite(program_length), dir, 1);
        gathered = harness::gatherTrainingData(
            repo, phases, program_length, 12000, gopt);
    }
    std::filesystem::remove_all(dir);
    std::vector<ml::PhaseData> data;
    for (const auto &g : gathered)
        data.push_back(g.toPhaseData(counters::FeatureSet::Advanced));
    const auto model = ml::trainModel(data, ml::TrainerOptions{});

    const auto wl_a = workload::specBenchmark(pair[0], program_length);
    const auto wl_b = workload::specBenchmark(pair[1], program_length);
    const auto static_stats =
        runStaticChip({&wl_a, &wl_b}, base, chip, run_insts, interval,
                      nullptr, &cycle);

    ChipControllerOptions copt;
    copt.intervalLength = interval;
    copt.initialConfig = base;
    copt.chip = chip;
    copt.backend = &cycle;
    ChipController controller({&wl_a, &wl_b}, model, copt);
    const auto adaptive_stats = controller.run(run_insts);

    const double static_eff = static_stats.meanEfficiency();
    ASSERT_GT(static_eff, 0.0);
    EXPECT_GE(adaptive_stats.meanEfficiency() / static_eff, 1.0);
}

TEST(ChipController, TwoCoreChipMatchesFrozenGolden)
{
    // The multi-core path of both entry points, pinned bit for bit:
    // gzip + gap on a two-core Table III chip, 30k µops in 5k
    // intervals, default backend, dummy model.
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    const auto chip = uarch::ChipConfig::homogeneous(
        harness::paperBaselineConfig(), 2);

    struct Golden
    {
        std::uint64_t phaseChanges, profilingIntervals,
            reconfigurations, reconfigCycles, seconds, joules,
            occupancyShare;
    };
    const auto check = [](const ChipRunStats &got,
                          const std::vector<Golden> &want) {
        ASSERT_EQ(got.cores.size(), want.size());
        for (std::size_t c = 0; c < want.size(); ++c) {
            const RunStats &s = got.cores[c];
            EXPECT_EQ(s.intervals, 6u) << c;
            EXPECT_EQ(s.instructions, 30000u) << c;
            EXPECT_EQ(s.phaseChanges, want[c].phaseChanges) << c;
            EXPECT_EQ(s.profilingIntervals,
                      want[c].profilingIntervals)
                << c;
            EXPECT_EQ(s.reconfigurations, want[c].reconfigurations)
                << c;
            EXPECT_EQ(s.reconfigCycles, want[c].reconfigCycles) << c;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(s.seconds),
                      want[c].seconds)
                << c;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(s.joules),
                      want[c].joules)
                << c;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          got.interference[c].occupancyShare),
                      want[c].occupancyShare)
                << c;
        }
    };

    check(runStaticChip({&a, &b}, harness::paperBaselineConfig(),
                        chip, 30000, 5000),
          {{0, 0, 0, 0, 0x3f02da5a207f48d8ULL, 0x3f2dffb99a0fa736ULL,
            0x3f8ebc0000000000ULL},
           {0, 0, 0, 0, 0x3f01161266091e62ULL, 0x3f296f8f90430641ULL,
            0x3f75d80000000000ULL}});

    const auto model = dummyModel();
    ChipControllerOptions opt = soloOptions(5000);
    opt.chip = chip;
    ChipController controller({&a, &b}, model, opt);
    check(controller.run(30000),
          {{2, 2, 1, 2966, 0x3f1d14c2aa96086eULL,
            0x3f418018cbb4da68ULL, 0x3f81900000000000ULL},
           {1, 1, 1, 2966, 0x3f1e12bfbf2af538ULL,
            0x3f406b04009747bdULL, 0x3f71c80000000000ULL}});
}

TEST(ChipController, RegistryCountsEveryEventPerfbenchReads)
{
    // perfbench reads these names from the obs registry: a renamed or
    // dropped count would read 0 there, not fail.  A one-core static
    // and adaptive pair, then a two-core pair (gzip + gap, 30k µops
    // in 5k intervals, dummy model), each count pinned exactly.
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    const auto model = dummyModel();
    const auto pair = [&](std::vector<const workload::Workload *> wl) {
        const auto chip = uarch::ChipConfig::homogeneous(
            harness::paperBaselineConfig(), wl.size());
        return perfbenchCounts([&] {
            (void)runStaticChip(wl, harness::paperBaselineConfig(),
                                chip, 30000, 5000);
            ChipControllerOptions opt = soloOptions(5000);
            opt.chip = chip;
            (void)ChipController(wl, model, opt).run(30000);
        });
    };

    // One core: 6 static and 4 adaptive intervals on the core's
    // cycle session plus 2 solo profiles, each one backend run.
    const std::map<std::string, std::uint64_t> one_core = {
        {"uarch/cycles", 235923},
        {"uarch/committed_ops", 60000},
        {"control/reconfigurations", 1},
        {"backend/cycle/evals", 12},
        {"uarch/run", 12},
        {"uarch/chip_run", 0},
        {"control/profile", 2},
        {"control/predict", 2},
    };
    EXPECT_EQ(pair({&a}), one_core);

    // Two cores: 11 chip runs of 2000-µop quanta (3 per core and
    // interval) over 21 core-intervals, plus 3 solo profiles.
    const std::map<std::string, std::uint64_t> two_core = {
        {"uarch/cycles", 921666},
        {"uarch/committed_ops", 120000},
        {"control/reconfigurations", 2},
        {"backend/cycle/evals", 3},
        {"uarch/run", 66},
        {"uarch/chip_run", 11},
        {"control/profile", 3},
        {"control/predict", 3},
    };
    EXPECT_EQ(pair({&a, &b}), two_core);
}
