#include "uarch/register_file.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adaptsim::uarch
{

RegisterFile::RegisterFile(int phys_regs)
    : renameRegs_(std::max(phys_regs - isa::numArchRegs, 1))
{
}

void
RegisterFile::squash(int count)
{
    if (count > inFlight_)
        panic("RegisterFile::squash beyond in-flight count");
    inFlight_ -= count;
}

} // namespace adaptsim::uarch
