#include "uarch/core_config.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "power/cacti.hh"
#include "power/frequency.hh"

namespace adaptsim::uarch
{

CoreConfig
CoreConfig::fromConfiguration(const space::Configuration &c)
{
    using space::Param;
    CoreConfig cfg;
    cfg.width = static_cast<int>(c.value(Param::Width));
    cfg.robSize = static_cast<int>(c.value(Param::RobSize));
    cfg.iqSize = static_cast<int>(c.value(Param::IqSize));
    cfg.lsqSize = static_cast<int>(c.value(Param::LsqSize));
    cfg.rfSize = static_cast<int>(c.value(Param::RfSize));
    cfg.rfRdPorts = static_cast<int>(c.value(Param::RfRdPorts));
    cfg.rfWrPorts = static_cast<int>(c.value(Param::RfWrPorts));
    cfg.gshareEntries = static_cast<int>(c.value(Param::GshareSize));
    cfg.btbEntries = static_cast<int>(c.value(Param::BtbSize));
    cfg.maxBranches = static_cast<int>(c.value(Param::MaxBranches));
    cfg.icacheBytes = c.value(Param::ICacheSize);
    cfg.dcacheBytes = c.value(Param::DCacheSize);
    cfg.l2Bytes = c.value(Param::L2CacheSize);
    cfg.depthFo4 = static_cast<int>(c.value(Param::Depth));
    cfg.derive();
    return cfg;
}

void
CoreConfig::derive()
{
    namespace pw = adaptsim::power;

    clockPeriodSec = pw::clockPeriodSeconds(depthFo4);
    clockHz = pw::clockFrequencyHz(depthFo4);
    numStages = pw::pipelineStages(depthFo4);
    frontendDelay = pw::frontendStages(depthFo4);

    const double period_ns = clockPeriodSec * 1e9;
    auto to_cycles = [&](double ns, int floor_cycles) {
        return std::max(floor_cycles, static_cast<int>(
            std::ceil(ns / period_ns)));
    };
    icacheLatency =
        to_cycles(pw::sramAccessTimeNs(icacheBytes, l1Assoc), 1);
    dcacheLatency =
        to_cycles(pw::sramAccessTimeNs(dcacheBytes, l1Assoc), 1);
    l2Latency =
        to_cycles(pw::sramAccessTimeNs(l2Bytes, l2Assoc) + 1.0, 4);
    memLatency = to_cycles(pw::dramLatencyNs, 20);

    numAlu = width;
    numMemPorts = std::max(1, width / 2);
    numFpu = std::max(1, (width + 1) / 2);
    numMul = std::max(1, width / 4);

    if (width < 2 || robSize < 8 || iqSize < 4 || lsqSize < 4)
        fatal("implausible core configuration: ", toString());
}

std::string
CoreConfig::toString() const
{
    std::ostringstream os;
    os << "w" << width << " rob" << robSize << " iq" << iqSize
       << " lsq" << lsqSize << " rf" << rfSize << " rd" << rfRdPorts
       << " wr" << rfWrPorts << " gsh" << gshareEntries << " btb"
       << btbEntries << " br" << maxBranches << " ic"
       << icacheBytes / 1024 << "K dc" << dcacheBytes / 1024 << "K l2"
       << l2Bytes / 1024 << "K d" << depthFo4;
    return os.str();
}

ChipConfig
ChipConfig::homogeneous(const space::Configuration &c,
                        std::size_t cores)
{
    if (cores == 0)
        fatal("ChipConfig: need at least one core");
    ChipConfig chip;
    chip.coreConfigs.assign(cores, c);
    return chip;
}

} // namespace adaptsim::uarch
