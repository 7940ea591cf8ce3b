#include "uarch/chip.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace adaptsim::uarch
{

Chip::Chip(const ChipConfig &cfg,
           const std::vector<workload::WrongPathGenerator *>
               &wrong_paths)
    : wrongPaths_(wrong_paths)
{
    const std::size_t n = cfg.numCores();
    if (n < 2)
        panic("Chip: need at least two cores (got ", n, ")");
    if (wrong_paths.size() != n)
        panic("Chip: ", wrong_paths.size(), " wrong-path sources for ",
              n, " cores");
    for (std::size_t i = 0; i < n; ++i) {
        if (!wrong_paths[i])
            panic("Chip: null wrong-path source for core ", i);
    }
    llc_ = std::make_unique<SharedLlc>(cfg);

    cores_.reserve(n);
    elapsed_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const CoreConfig derived =
            CoreConfig::fromConfiguration(cfg.coreConfigs[i]);
        cores_.push_back(std::make_unique<Core>(
            derived, *wrongPaths_[i], llc_.get(),
            static_cast<unsigned>(i)));
        const std::string base = "chip/core/" + std::to_string(i);
        auto &reg = obs::Registry::global();
        counters_.push_back({&reg.counter(base + "/quanta"),
                             &reg.counter(base + "/committed_ops")});
    }
}

ChipResult
Chip::run(const std::vector<std::span<const isa::MicroOp>> &traces)
{
    OBS_SPAN("uarch/chip_run");
    const std::size_t n = cores_.size();
    if (traces.size() != n)
        panic("Chip: ", traces.size(), " traces for ", n, " cores");

    ChipResult res;
    res.cores.resize(n);
    res.occupancyShare.assign(n, 0.0);

    std::vector<std::size_t> pos(n, 0);
    for (;;) {
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &trace = traces[i];
            if (pos[i] >= trace.size())
                continue;
            any = true;
            const std::size_t len = static_cast<std::size_t>(
                std::min<std::uint64_t>(quantum,
                                        trace.size() - pos[i]));
            cores_[i]->setTimeBase(elapsed_[i]);
            const SimResult r =
                cores_[i]->run(trace.subspan(pos[i], len));
            res.cores[i].cycles += r.cycles;
            res.cores[i].events.merge(r.events);
            elapsed_[i] += r.cycles;
            pos[i] += len;
            counters_[i].quanta->add(1);
        }
        if (!any)
            break;
    }

    for (std::size_t i = 0; i < n; ++i) {
        res.occupancyShare[i] =
            llc_->occupancyShare(static_cast<unsigned>(i));
        counters_[i].committedOps->add(res.cores[i].events.committedOps);
    }
    return res;
}

void
Chip::reconfigureCore(std::size_t core, const space::Configuration &c)
{
    if (core >= cores_.size())
        panic("Chip: reconfigure of core ", core, " on a ",
              cores_.size(), "-core chip");
    const CoreConfig derived = CoreConfig::fromConfiguration(c);
    cores_[core] = std::make_unique<Core>(
        derived, *wrongPaths_[core], llc_.get(),
        static_cast<unsigned>(core));
}

} // namespace adaptsim::uarch
