/**
 * @file
 * Per-cycle functional unit availability.
 *
 * ALUs, FPUs and memory ports are fully pipelined (capacity = count
 * per cycle); multipliers are pipelined with a dedicated pool; divides
 * are unpipelined and block their unit until completion.
 */

#ifndef ADAPTSIM_UARCH_FUNCTIONAL_UNITS_HH
#define ADAPTSIM_UARCH_FUNCTIONAL_UNITS_HH

#include <array>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/micro_op.hh"
#include "uarch/core_config.hh"

namespace adaptsim::uarch
{

/** Tracks which functional units are free in the current cycle. */
class FunctionalUnits
{
  public:
    explicit FunctionalUnits(const CoreConfig &cfg);

    /** Reset per-cycle capacity at the start of cycle @p now. */
    void
    beginCycle(Cycles)
    {
        aluUsed_ = 0;
        memUsed_ = 0;
        fpUsed_ = 0;
        mulUsed_ = 0;
    }

    /** True if an op of @p cls could issue this cycle. */
    bool
    canIssue(isa::OpClass cls, Cycles now) const
    {
        using isa::OpClass;
        switch (cls) {
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Nop:
            return aluUsed_ < cfg_.numAlu;
          case OpClass::IntMul:
            return mulUsed_ < cfg_.numMul;
          case OpClass::IntDiv:
            return mulUsed_ < cfg_.numMul && intDivBusyUntil_ <= now;
          case OpClass::FpAlu:
          case OpClass::FpMul:
            return fpUsed_ < cfg_.numFpu;
          case OpClass::FpDiv:
            return fpUsed_ < cfg_.numFpu && fpDivBusyUntil_ <= now;
          case OpClass::Load:
          case OpClass::Store:
            return memUsed_ < cfg_.numMemPorts;
          default:
            return false;
        }
    }

    /**
     * Consume the unit for an op of @p cls issuing at @p now.
     * canIssue() must have returned true this cycle.
     */
    void
    issue(isa::OpClass cls, Cycles now, int latency)
    {
        using isa::OpClass;
        switch (cls) {
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Nop:
            ++aluUsed_;
            break;
          case OpClass::IntMul:
            ++mulUsed_;
            break;
          case OpClass::IntDiv:
            ++mulUsed_;
            intDivBusyUntil_ = now + latency;
            break;
          case OpClass::FpAlu:
          case OpClass::FpMul:
            ++fpUsed_;
            break;
          case OpClass::FpDiv:
            ++fpUsed_;
            fpDivBusyUntil_ = now + latency;
            break;
          case OpClass::Load:
          case OpClass::Store:
            ++memUsed_;
            break;
          default:
            panic("FunctionalUnits::issue of invalid op class");
        }
    }

    /** Units of each pool in use this cycle (for counters). */
    int aluUsed() const { return aluUsed_; }
    int memPortsUsed() const { return memUsed_; }
    int fpUsed() const { return fpUsed_; }

    /** First cycles the integer and FP dividers are free again. */
    std::array<Cycles, 2>
    divBusyUntil() const
    {
        return {intDivBusyUntil_, fpDivBusyUntil_};
    }

  private:
    CoreConfig cfg_;
    int aluUsed_ = 0;
    int memUsed_ = 0;
    int fpUsed_ = 0;
    int mulUsed_ = 0;
    Cycles intDivBusyUntil_ = 0;
    Cycles fpDivBusyUntil_ = 0;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_FUNCTIONAL_UNITS_HH
