/**
 * @file
 * Table IV: how many cache sets must be sampled per feature type to
 * keep the reuse histograms representative (dynamic set sampling,
 * Sec. VIII).  For each cache and feature we sweep the sampled-set
 * count and pick the smallest one whose normalised histogram stays
 * within a distance bound of the fully-monitored histogram across a
 * spread of workloads.
 */

#include "sections.hh"

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hh"
#include "counters/counter_bank.hh"
#include "uarch/core.hh"
#include "workload/spec_suite.hh"

namespace adaptsim::paper
{

namespace
{

constexpr std::uint64_t programLength = 200000;
constexpr std::uint64_t warmLength = 6000;
constexpr std::uint64_t detailLength = 6000;

/** L1 distance of two normalised histograms (range [0, 2]). */
double
histDistance(const Histogram &a, const Histogram &b)
{
    const auto fa = a.normalised();
    const auto fb = b.normalised();
    double d = 0.0;
    for (std::size_t i = 0; i < fa.size(); ++i)
        d += std::abs(fa[i] - fb[i]);
    return d;
}

/** Run a profiling interval with the given sampling spec. */
counters::CounterBank
profileWith(const workload::Workload &wl,
            const counters::SamplingSpec &sampling)
{
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(
        space::Configuration::profiling());
    uarch::Core core(cc, wp);
    core.warm(wl.generate(programLength / 2 - warmLength,
                          warmLength));
    counters::CounterBank bank(cc, sampling);
    const auto result =
        core.run(wl.generate(programLength / 2, detailLength),
                 &bank);
    bank.finalise(result.events);
    return bank;
}

} // namespace

void
table4_set_sampling(harness::Experiment &)
{
    const std::vector<std::string> programs = {
        "mcf", "crafty", "swim", "gcc", "eon", "art"};
    const std::vector<std::uint64_t> candidates = {4, 16, 64, 256,
                                                   1024};
    const double bound = 0.35;   // max acceptable L1 distance

    std::vector<workload::Workload> wls;
    for (const auto &name : programs)
        wls.push_back(workload::specBenchmark(name, programLength));

    // Full-monitoring references.
    std::vector<counters::CounterBank> full;
    for (const auto &wl : wls)
        full.push_back(profileWith(wl, {}));

    struct FeatureDef
    {
        const char *feature;
        const char *cache;
        std::uint64_t maxSets;
        std::function<const Histogram &(
            const counters::CounterBank &)> get;
        std::function<void(counters::SamplingSpec &,
                           std::uint64_t)> set;
    };
    const std::vector<FeatureDef> defs = {
        {"Set reuse", "Insn cache", 1024,
         [](const counters::CounterBank &b) -> const Histogram & {
             return b.icSetReuse().histogram();
         },
         [](counters::SamplingSpec &s, std::uint64_t n) {
             s.icSetReuse = n;
         }},
        {"Set reuse", "Data cache", 1024,
         [](const counters::CounterBank &b) -> const Histogram & {
             return b.dcSetReuse().histogram();
         },
         [](counters::SamplingSpec &s, std::uint64_t n) {
             s.dcSetReuse = n;
         }},
        {"Set reuse", "L2 cache", 8192,
         [](const counters::CounterBank &b) -> const Histogram & {
             return b.l2SetReuse().histogram();
         },
         [](counters::SamplingSpec &s, std::uint64_t n) {
             s.l2SetReuse = n;
         }},
        {"Blk reuse", "Insn cache", 1024,
         [](const counters::CounterBank &b) -> const Histogram & {
             return b.icBlockReuse().histogram();
         },
         [](counters::SamplingSpec &s, std::uint64_t n) {
             s.icBlockReuse = n;
         }},
        {"Blk reuse", "Data cache", 1024,
         [](const counters::CounterBank &b) -> const Histogram & {
             return b.dcBlockReuse().histogram();
         },
         [](counters::SamplingSpec &s, std::uint64_t n) {
             s.dcBlockReuse = n;
         }},
        {"Blk reuse", "L2 cache", 8192,
         [](const counters::CounterBank &b) -> const Histogram & {
             return b.l2BlockReuse().histogram();
         },
         [](counters::SamplingSpec &s, std::uint64_t n) {
             s.l2BlockReuse = n;
         }},
    };

    TextTable table;
    table.setHeader({"Feature", "Cache", "Sets needed",
                     "Avg distance", "Paper sets"});
    const std::map<std::pair<std::string, std::string>,
                   std::uint64_t> paper = {
        {{"Set reuse", "Insn cache"}, 256},
        {{"Set reuse", "Data cache"}, 4},
        {{"Set reuse", "L2 cache"}, 16},
        {{"Blk reuse", "Insn cache"}, 16},
        {{"Blk reuse", "Data cache"}, 128},
        {{"Blk reuse", "L2 cache"}, 32},
    };

    for (const auto &def : defs) {
        std::uint64_t chosen = def.maxSets;
        double chosen_d = 0.0;
        for (std::uint64_t n : candidates) {
            if (n > def.maxSets)
                continue;
            double total_d = 0.0;
            for (std::size_t w = 0; w < wls.size(); ++w) {
                counters::SamplingSpec spec;
                def.set(spec, n);
                const auto sampled = profileWith(wls[w], spec);
                total_d += histDistance(def.get(full[w]),
                                        def.get(sampled));
            }
            const double avg_d = total_d / double(wls.size());
            if (avg_d <= bound) {
                chosen = n;
                chosen_d = avg_d;
                break;
            }
            chosen_d = avg_d;
        }
        table.addRow(
            {def.feature, def.cache, std::to_string(chosen),
             TextTable::num(chosen_d),
             std::to_string(paper.at({def.feature, def.cache}))});
    }

    std::printf("Table IV: sets sampled per cache per feature type\n"
                "(smallest sampled-set count keeping the histogram "
                "within %.2f L1 distance of full monitoring)\n\n%s\n",
                bound, table.render().c_str());
    std::printf("Note: the paper samples over 10M-instruction "
                "intervals; at this reproduction's scaled interval "
                "size the sampled histograms see far fewer events, "
                "so more sets are needed for the same fidelity "
                "(especially for the sparsely-accessed L2).\n");
}

} // namespace adaptsim::paper
