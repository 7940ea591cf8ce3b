/**
 * @file
 * Physical register file occupancy model.
 *
 * Renaming needs one free physical register per dispatched dest; the
 * architectural state permanently holds 32.  We track the in-flight
 * count (allocation/commit/squash) rather than explicit free lists —
 * trace-driven timing only needs occupancy and availability.
 */

#ifndef ADAPTSIM_UARCH_REGISTER_FILE_HH
#define ADAPTSIM_UARCH_REGISTER_FILE_HH

#include "common/logging.hh"
#include "isa/micro_op.hh"

namespace adaptsim::uarch
{

/** One physical register file (integer or FP). */
class RegisterFile
{
  public:
    explicit RegisterFile(int phys_regs);

    /** True when a destination can be renamed this cycle. */
    bool canAllocate() const { return inFlight_ < renameRegs_; }

    /** Claim one physical register for an in-flight destination. */
    void
    allocate()
    {
        if (!canAllocate())
            panic("RegisterFile::allocate with no free registers");
        ++inFlight_;
    }

    /** Release at commit (the previous mapping is freed). */
    void
    release()
    {
        if (inFlight_ <= 0)
            panic("RegisterFile::release with nothing in flight");
        --inFlight_;
    }

    /** Release @p count registers of squashed in-flight producers. */
    void squash(int count);

    /** Registers currently holding live state (arch + in-flight). */
    int used() const { return isa::numArchRegs + inFlight_; }

    int
    inFlight() const // lint:allow(unused-api) squash-accounting tests
    {
        return inFlight_;
    }

  private:
    int renameRegs_;   ///< physical registers beyond architectural
    int inFlight_ = 0;
};

} // namespace adaptsim::uarch

#endif // ADAPTSIM_UARCH_REGISTER_FILE_HH
