#include "power/energy_model.hh"

#include "power/cacti.hh"
#include "power/frequency.hh"

namespace adaptsim::power
{

namespace
{

// Functional unit per-operation energies (nJ).
constexpr double aluOpNj = 0.040;
constexpr double mulOpNj = 0.120;
constexpr double divOpNj = 0.300;
constexpr double fpOpNj = 0.150;
constexpr double fpMulOpNj = 0.200;
constexpr double fpDivOpNj = 0.500;
constexpr double aguOpNj = 0.030;

// Clock tree / latch energy per latch-column per cycle (nJ).
constexpr double clockPerLatchColNj = 0.018;

// Baseline core leakage not attributed to a sized structure (W).
constexpr double coreBaseLeakW = 0.5;

// Bytes of payload per entry of the window structures.
constexpr int robEntryBytes = 16;
constexpr int iqEntryBytes = 12;
constexpr int lsqEntryBytes = 16;
constexpr int btbEntryBytes = 8;

} // namespace

double
EnergyBreakdown::totalDynamicJ() const
{
    double total = 0.0;
    for (double j : dynamicJ)
        total += j;
    return total;
}

EnergyModel::EnergyModel(const uarch::CoreConfig &cfg)
    : cfg_(cfg)
{
    icAccessNj_ = sramAccessEnergyNj(cfg.icacheBytes,
                                     uarch::CoreConfig::l1Assoc);
    dcAccessNj_ = sramAccessEnergyNj(cfg.dcacheBytes,
                                     uarch::CoreConfig::l1Assoc);
    l2AccessNj_ = sramAccessEnergyNj(cfg.l2Bytes,
                                     uarch::CoreConfig::l2Assoc);
    rfAccessNj_ = rfAccessEnergyNj(cfg.rfSize, cfg.rfRdPorts,
                                   cfg.rfWrPorts);
    robAccessNj_ = arrayAccessEnergyNj(cfg.robSize, robEntryBytes);
    iqAccessNj_ = arrayAccessEnergyNj(cfg.iqSize, iqEntryBytes);
    iqWakeupPerEntryNj_ = camSearchEnergyNj(1);
    lsqAccessNj_ = arrayAccessEnergyNj(cfg.lsqSize, lsqEntryBytes);
    lsqSearchPerEntryNj_ = camSearchEnergyNj(1);
    gshareAccessNj_ = arrayAccessEnergyNj(cfg.gshareEntries, 1);
    btbAccessNj_ = arrayAccessEnergyNj(cfg.btbEntries,
                                       btbEntryBytes);
    // One latch column per pipeline stage, scaled by machine width.
    clockPerCycleNj_ = clockPerLatchColNj *
                       static_cast<double>(cfg.width) *
                       static_cast<double>(cfg.numStages);

    leakageW_ = coreBaseLeakW +
        sramLeakageW(cfg.icacheBytes) +
        sramLeakageW(cfg.dcacheBytes) +
        sramLeakageW(cfg.l2Bytes) +
        2.0 * rfLeakageW(cfg.rfSize, cfg.rfRdPorts, cfg.rfWrPorts) +
        arrayLeakageW(cfg.robSize, robEntryBytes) +
        arrayLeakageW(cfg.iqSize, iqEntryBytes) +
        arrayLeakageW(cfg.lsqSize, lsqEntryBytes) +
        arrayLeakageW(cfg.gshareEntries, 1) +
        arrayLeakageW(cfg.btbEntries, btbEntryBytes) +
        // Wider, deeper cores leak more through datapath logic.
        0.05 * static_cast<double>(cfg.width) +
        0.01 * static_cast<double>(cfg.numStages);
}

EnergyBreakdown
EnergyModel::evaluate(const uarch::EventCounts &ev) const
{
    EnergyBreakdown out;
    auto &dj = out.dynamicJ;
    auto at = [&](Structure s) -> double & {
        return dj[static_cast<std::size_t>(s)];
    };
    const double nj = 1e-9;

    at(Structure::ICache) = nj * icAccessNj_ *
        static_cast<double>(ev.icAccesses);
    at(Structure::DCache) = nj * dcAccessNj_ *
        static_cast<double>(ev.dcAccesses + ev.dcWritebacks);
    at(Structure::L2Cache) = nj * l2AccessNj_ *
        static_cast<double>(ev.l2Accesses + ev.l2Misses);
    at(Structure::RegFile) = nj * rfAccessNj_ *
        static_cast<double>(ev.rfReads + ev.rfWrites);
    at(Structure::Rob) = nj * robAccessNj_ *
        static_cast<double>(ev.robWrites + ev.robReads +
                            ev.squashedOps);
    at(Structure::IssueQueue) = nj *
        (iqAccessNj_ * static_cast<double>(ev.iqWrites +
                                           ev.iqIssues) +
         iqWakeupPerEntryNj_ * static_cast<double>(ev.iqWakeups));
    at(Structure::Lsq) = nj *
        (lsqAccessNj_ * static_cast<double>(ev.lsqInserts) +
         lsqSearchPerEntryNj_ *
             static_cast<double>(ev.lsqSearches));
    at(Structure::Bpred) = nj *
        (gshareAccessNj_ * static_cast<double>(ev.bpredLookups +
                                               ev.bpredUpdates) +
         btbAccessNj_ * static_cast<double>(ev.btbLookups));
    at(Structure::FuncUnits) = nj *
        (aluOpNj * static_cast<double>(ev.aluOps) +
         mulOpNj * static_cast<double>(ev.mulOps) +
         divOpNj * static_cast<double>(ev.divOps) +
         fpOpNj * static_cast<double>(ev.fpOps) +
         fpMulOpNj * static_cast<double>(ev.fpMulOps) +
         fpDivOpNj * static_cast<double>(ev.fpDivOps) +
         aguOpNj * static_cast<double>(ev.memPortOps));
    at(Structure::ClockTree) = nj * clockPerCycleNj_ *
        static_cast<double>(ev.cycles);
    at(Structure::Dram) = nj * dramAccessEnergyNj *
        static_cast<double>(ev.memAccesses);

    const double seconds = static_cast<double>(ev.cycles) *
                           cfg_.clockPeriodSec;
    out.leakageJ = leakageW_ * seconds;
    return out;
}

} // namespace adaptsim::power
