/**
 * @file
 * Multi-core chip model: co-run throughput and interference.
 *
 * Timing rows compare a 2-core and a 4-core co-run mix (one
 * round-robin interleaved chip) against the same traces run as 2×/4×
 * sequential single-core chips — the chip loop's contention modelling
 * overhead, per simulated µop.
 *
 * A final perf_chip_stats row carries the paper-facing co-run
 * figures on a contended 2-core chip (mcf + gcc, small LLC): per-core
 * IPC solo-on-chip vs under co-run (interference loss), and the
 * per-core predictive controller's efficiency against the static
 * Table III baseline on the identical mix (recovery).  The CI
 * perf-smoke job gates on loss > 0 and recovery ≥ 1.
 */

#include "perf_harness.hh"

#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/env.hh"
#include "control/chip_controller.hh"
#include "harness/gather.hh"
#include "ml/trainer.hh"
#include "sim/perf_model.hh"
#include "uarch/chip.hh"
#include "workload/mix.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;

namespace
{

constexpr std::uint64_t kProgramLength = 400000;
constexpr std::uint64_t kWrongPathSalt = 0x57a71cULL;

struct MixRun
{
    std::vector<workload::Workload> workloads;
    std::vector<std::unique_ptr<workload::WrongPathGenerator>> wps;
    std::vector<workload::WrongPathGenerator *> wpp;
    std::vector<std::vector<isa::MicroOp>> warm, detail;
    std::vector<std::span<const isa::MicroOp>> traces;
};

MixRun
buildMix(const std::vector<std::string> &programs,
         std::uint64_t warm_len, std::uint64_t detail_len)
{
    MixRun m;
    for (const auto &p : programs) {
        m.workloads.push_back(
            workload::specBenchmark(p, kProgramLength));
        const auto &wl = m.workloads.back();
        m.wps.push_back(
            std::make_unique<workload::WrongPathGenerator>(
                wl.averageParams(), wl.seed() ^ kWrongPathSalt));
        m.warm.push_back(wl.generate(40000 - warm_len, warm_len));
        m.detail.push_back(wl.generate(40000, detail_len));
    }
    for (auto &wp : m.wps)
        m.wpp.push_back(wp.get());
    for (auto &d : m.detail)
        m.traces.emplace_back(d);
    return m;
}

/** The contended geometry used by every row here: a deliberately
 *  small LLC so the short bench traces actually compete. */
uarch::ChipConfig
benchChip(const space::Configuration &cfg, std::size_t cores)
{
    auto chip = uarch::ChipConfig::homogeneous(cfg, cores);
    chip.llcBytes = 256 * 1024;
    chip.llcBanks = llcBanks() <= 4 ? int(llcBanks()) : 4;
    chip.llcMshrsPerBank = 4;
    return chip;
}

/** One full co-run repetition; returns total committed µops. */
double
corunOnce(const uarch::ChipConfig &cfg, MixRun &m)
{
    uarch::Chip chip(cfg, m.wpp);
    for (std::size_t i = 0; i < m.wpp.size(); ++i)
        chip.warm(i, m.warm[i]);
    const auto res = chip.run(m.traces);
    double ops = 0.0;
    for (const auto &c : res.cores)
        ops += double(c.events.committedOps);
    return ops;
}

/** The same traces as N sequential single-core chips. */
double
soloSequentialOnce(const space::Configuration &cfg, MixRun &m)
{
    double ops = 0.0;
    for (std::size_t i = 0; i < m.wpp.size(); ++i) {
        uarch::Chip chip(uarch::ChipConfig::homogeneous(cfg, 1),
                         {m.wpp[i]});
        chip.warm(0, m.warm[i]);
        const auto res =
            chip.run({std::span<const isa::MicroOp>(m.detail[i])});
        ops += double(res.cores[0].events.committedOps);
    }
    return ops;
}

/** Per-core IPC of @p target with only that core active on @p cfg. */
double
soloOnChipIpc(const uarch::ChipConfig &cfg, MixRun &m,
              std::size_t target)
{
    uarch::Chip chip(cfg, m.wpp);
    chip.warm(target, m.warm[target]);
    std::vector<std::span<const isa::MicroOp>> traces(
        m.wpp.size());
    traces[target] = m.traces[target];
    const auto res = chip.run(traces);
    const auto &c = res.cores[target];
    return c.cycles ? double(c.events.committedOps) /
                          double(c.cycles)
                    : 0.0;
}

/**
 * Train the Sec. IV model on a miniature gather over @p programs,
 * with training phases tiled over [0, run_insts) — the exact region
 * the controller will execute, so the model's per-phase predictions
 * apply to the phases the online detector will actually see.
 */
ml::AdaptivityModel
trainMiniModel(const std::vector<std::string> &programs,
               std::uint64_t run_insts, std::uint64_t interval)
{
    harness::GatherOptions gopt;
    gopt.sharedRandomConfigs = 16;
    gopt.localNeighbours = 4;
    gopt.oneAtATimeSweep = true;
    gopt.progress = false;
    gopt.backend = &sim::perfModel("cycle");

    std::vector<phase::Phase> phases;
    const std::size_t per_program =
        static_cast<std::size_t>(run_insts / interval);
    for (const auto &prog : programs) {
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

    const auto dir = std::filesystem::temp_directory_path() /
                     "adaptsim_perf_chip";
    std::filesystem::remove_all(dir);
    harness::EvalRepository repo(
        workload::specSuite(kProgramLength), dir.string(), 1);
    const auto gathered = harness::gatherTrainingData(
        repo, phases, kProgramLength, 12000, gopt);
    std::filesystem::remove_all(dir);

    std::vector<ml::PhaseData> data;
    data.reserve(gathered.size());
    for (const auto &g : gathered)
        data.push_back(
            g.toPhaseData(counters::FeatureSet::Advanced));
    return ml::trainModel(data, ml::TrainerOptions{});
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = perf::PerfOptions::parse(argc, argv);
    const std::uint64_t detail = opt.smoke ? 12000 : 48000;
    const std::uint64_t warm = opt.smoke ? 8000 : 16000;
    const auto base = harness::paperBaselineConfig();

    // Timing: deterministic generator-drawn mixes, co-run vs 2×/4×
    // sequential solo on the same traces.
    const auto mix2 =
        workload::specMixes(2, 1, mixSeed())[0];
    const auto mix4 =
        workload::specMixes(4, 1, mixSeed())[0];

    for (const auto *mix : {&mix2, &mix4}) {
        auto m = buildMix(mix->programs, warm, detail);
        const auto cfg = benchChip(base, mix->cores());
        const std::string tag =
            "perf_chip_" + std::to_string(mix->cores()) + "core";

        double items = 0.0;
        const auto corun_secs = perf::runTimed(
            opt, items, [&]() { return corunOnce(cfg, m); });
        perf::emitJson(tag, opt, corun_secs, items, "uops");

        const auto solo_secs = perf::runTimed(opt, items, [&]() {
            return soloSequentialOnce(base, m);
        });
        perf::emitJson(tag + "_solo_ref", opt, solo_secs, items,
                       "uops");
    }

    // Interference + recovery figures on a fixed memory-heavy pair.
    const std::vector<std::string> pair = {"mcf", "gcc"};
    const auto chip_cfg = benchChip(base, pair.size());
    auto m = buildMix(pair, warm, detail);

    double solo_gm = 1.0, corun_gm = 1.0;
    {
        uarch::Chip chip(chip_cfg, m.wpp);
        for (std::size_t i = 0; i < pair.size(); ++i)
            chip.warm(i, m.warm[i]);
        const auto res = chip.run(m.traces);
        for (std::size_t i = 0; i < pair.size(); ++i) {
            const auto &c = res.cores[i];
            corun_gm *= double(c.events.committedOps) /
                        double(c.cycles);
        }
    }
    for (std::size_t i = 0; i < pair.size(); ++i) {
        auto solo = buildMix(pair, warm, detail);
        solo_gm *= soloOnChipIpc(chip_cfg, solo, i);
    }
    solo_gm = std::sqrt(solo_gm);
    corun_gm = std::sqrt(corun_gm);
    const double loss = 1.0 - corun_gm / solo_gm;

    // Static Table III baseline vs the per-core predictive
    // controller on the identical mix and geometry.
    const auto wl_a = workload::specBenchmark(pair[0],
                                              kProgramLength);
    const auto wl_b = workload::specBenchmark(pair[1],
                                              kProgramLength);
    const std::vector<const workload::Workload *> workloads = {
        &wl_a, &wl_b};
    const std::uint64_t run_insts = opt.smoke ? 30000 : 60000;

    const auto static_stats = control::runStaticChip(
        workloads, base, chip_cfg, run_insts, 6000, nullptr,
        &sim::perfModel("cycle"));

    const auto model = trainMiniModel(pair, run_insts, 6000);
    control::ChipControllerOptions copt;
    copt.intervalLength = 6000;
    copt.initialConfig = base;
    copt.chip = chip_cfg;
    copt.backend = &sim::perfModel("cycle");
    control::ChipController controller(workloads, model, copt);
    const auto adaptive_stats = controller.run(run_insts);

    const double static_eff = static_stats.meanEfficiency();
    const double adaptive_eff = adaptive_stats.meanEfficiency();
    const double recovery =
        static_eff > 0.0 ? adaptive_eff / static_eff : 0.0;

    std::printf(
        "{\"name\":\"perf_chip_stats\",\"cores\":%zu,"
        "\"programs\":[\"%s\",\"%s\"],"
        "\"solo_ipc_gm\":%.4f,\"corun_ipc_gm\":%.4f,"
        "\"interference_loss\":%.4f,"
        "\"static_eff\":%.6g,\"adaptive_eff\":%.6g,"
        "\"recovery\":%.4f}\n",
        pair.size(), pair[0].c_str(), pair[1].c_str(), solo_gm,
        corun_gm, loss, static_eff, adaptive_eff, recovery);
    return 0;
}
