/**
 * @file
 * Fig. 9: energy overheads of extracting the set and block reuse
 * distance histograms for each cache, with the Table IV set-sampling
 * configuration.  Paper: ≤1.6% dynamic, ≤1.4% leakage, only while
 * the profiling configuration runs.
 */

#include "sections.hh"

#include <cstdio>

#include "common/ascii_plot.hh"
#include "common/table.hh"
#include "counters/overhead_model.hh"
#include "uarch/core_config.hh"

namespace adaptsim::paper
{

using counters::MonitorOverhead;

void
fig9_counter_overheads(harness::Experiment &)
{
    // Profiling configuration cache geometry (largest caches).
    constexpr int line = uarch::CoreConfig::cacheLineBytes;
    constexpr int l1_assoc = uarch::CoreConfig::l1Assoc;
    constexpr int l2_assoc = uarch::CoreConfig::l2Assoc;
    const std::uint64_t ic_bytes = 128 * 1024;
    const std::uint64_t dc_bytes = 128 * 1024;
    const std::uint64_t l2_bytes = 4 * 1024 * 1024;

    // Table IV sampled set counts (paper values).
    const std::uint64_t set_samples[3] = {256, 4, 16};
    const std::uint64_t blk_samples[3] = {16, 128, 32};

    const char *names[3] = {"Insn cache", "Data cache", "L2 cache"};
    const std::uint64_t bytes[3] = {ic_bytes, dc_bytes, l2_bytes};
    const int assocs[3] = {l1_assoc, l1_assoc, l2_assoc};

    TextTable table;
    table.setHeader({"Cache", "Feature", "Sampled sets",
                     "Dynamic %", "Leakage %"});
    std::vector<BarDatum> bars;
    for (int c = 0; c < 3; ++c) {
        const MonitorOverhead set_oh = counters::setReuseOverhead(
            bytes[c], assocs[c], line, set_samples[c]);
        const MonitorOverhead blk_oh =
            counters::blockReuseOverhead(bytes[c], assocs[c], line,
                                         blk_samples[c]);
        table.addRow({names[c], "set reuse",
                      std::to_string(set_samples[c]),
                      TextTable::num(set_oh.dynamicPct),
                      TextTable::num(set_oh.leakagePct)});
        table.addRow({names[c], "block reuse",
                      std::to_string(blk_samples[c]),
                      TextTable::num(blk_oh.dynamicPct),
                      TextTable::num(blk_oh.leakagePct)});
        bars.push_back({std::string(names[c]) + " set dyn",
                        set_oh.dynamicPct});
        bars.push_back({std::string(names[c]) + " blk dyn",
                        blk_oh.dynamicPct});
        bars.push_back({std::string(names[c]) + " blk leak",
                        blk_oh.leakagePct});
    }

    std::printf("Fig. 9: monitoring energy overheads (sampled, %%)\n\n"
                "%s\n%s\n",
                table.render().c_str(),
                barChart("overheads (%)", bars).c_str());
    std::printf("Paper: max dynamic 1.55-1.6%% (dcache block reuse), "
                "max leakage 1.4%%.\n"
                "Overheads apply only while the profiling "
                "configuration runs (~1 interval in 10).\n");
}

} // namespace adaptsim::paper
