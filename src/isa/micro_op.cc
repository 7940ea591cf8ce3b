#include "isa/micro_op.hh"

#include <sstream>

namespace adaptsim::isa
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return "IntAlu";
      case OpClass::IntMul: return "IntMul";
      case OpClass::IntDiv: return "IntDiv";
      case OpClass::FpAlu: return "FpAlu";
      case OpClass::FpMul: return "FpMul";
      case OpClass::FpDiv: return "FpDiv";
      case OpClass::Load: return "Load";
      case OpClass::Store: return "Store";
      case OpClass::Branch: return "Branch";
      case OpClass::Nop: return "Nop";
      default: return "Invalid";
    }
}

std::string
MicroOp::toString() const
{
    std::ostringstream os;
    os << std::hex << "0x" << pc << std::dec << ' '
       << opClassName(opClass);
    if (destReg != noReg)
        os << " d" << destReg;
    if (srcReg0 != noReg)
        os << " s" << srcReg0;
    if (srcReg1 != noReg)
        os << " s" << srcReg1;
    if (isMem())
        os << " @0x" << std::hex << effAddr << std::dec;
    if (isBranch()) {
        os << (isCond ? " cond" : " uncond")
           << (taken ? " taken->0x" : " not-taken->0x") << std::hex
           << target << std::dec;
    }
    return os.str();
}

} // namespace adaptsim::isa
