/**
 * @file
 * The adaptsim micro-ISA.
 *
 * The timing simulator is trace-driven: workload generators emit a
 * deterministic stream of MicroOps (the "correct path"), which the
 * pipeline model replays under different microarchitectural
 * configurations.  A MicroOp carries exactly the information the timing
 * and counter models need: operation class, register dependencies,
 * memory effective address, and resolved branch behaviour.
 */

#ifndef ADAPTSIM_ISA_MICRO_OP_HH
#define ADAPTSIM_ISA_MICRO_OP_HH

#include <cstdint>

#include "common/types.hh"

namespace adaptsim::isa
{

/** Functional classes of micro-operations. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer ALU op
    IntMul,     ///< pipelined integer multiply
    IntDiv,     ///< unpipelined integer divide
    FpAlu,      ///< floating-point add/sub/convert
    FpMul,      ///< floating-point multiply
    FpDiv,      ///< unpipelined floating-point divide/sqrt
    Load,       ///< memory read
    Store,      ///< memory write
    Branch,     ///< control transfer (conditional or not)
    Nop,        ///< no-operation (consumes a slot only)
    NumOpClasses
};

/** Number of architectural integer (and, separately, FP) registers. */
inline constexpr int numArchRegs = 32;

/** Sentinel for "no register". */
inline constexpr std::int16_t noReg = -1;

/** True for Load and Store. */
constexpr bool
isMemOp(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True for FpAlu/FpMul/FpDiv. */
constexpr bool
isFpOp(OpClass c)
{
    return c == OpClass::FpAlu || c == OpClass::FpMul ||
           c == OpClass::FpDiv;
}

/**
 * One dynamic micro-operation of the synthetic trace.
 *
 * Register identifiers are architectural; renaming happens in the
 * pipeline model.  FP ops read/write the FP architectural file, all
 * others the integer file (loads/stores may target either via fpData).
 */
struct MicroOp
{
    Addr pc = 0;                    ///< instruction address
    OpClass opClass = OpClass::Nop; ///< functional class
    std::int16_t destReg = noReg;   ///< architectural destination
    std::int16_t srcReg0 = noReg;   ///< first source
    std::int16_t srcReg1 = noReg;   ///< second source
    bool fpData = false;            ///< load/store moves FP data
    Addr effAddr = invalidAddr;     ///< effective address (mem ops)
    std::uint32_t bbId = 0;         ///< basic block id (for BBVs)

    // Branch-only fields (resolved outcome from the generator).
    bool isCond = false;            ///< conditional branch
    bool taken = false;             ///< resolved direction
    Addr target = 0;                ///< resolved target address

    /** Field-wise equality (never memcmp: the struct has padding). */
    bool operator==(const MicroOp &) const = default;

    /** True when this op reads or writes memory. */
    bool isMem() const { return isMemOp(opClass); }

    /** True when this op is a load. */
    bool isLoad() const { return opClass == OpClass::Load; }

    /** True when this op is a store. */
    bool isStore() const { return opClass == OpClass::Store; }

    /** True when this op is a branch. */
    bool isBranch() const { return opClass == OpClass::Branch; }

    /** True when the destination lives in the FP register file. */
    bool writesFp() const
    {
        return destReg != noReg && (isFpOp(opClass) ||
                                    (isMem() && fpData));
    }

    /** True when sources live in the FP register file. */
    bool readsFp() const { return isFpOp(opClass); }
};

} // namespace adaptsim::isa

#endif // ADAPTSIM_ISA_MICRO_OP_HH
