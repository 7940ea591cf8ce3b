#include "uarch/rob.hh"

#include "common/logging.hh"

namespace adaptsim::uarch
{

Rob::Rob(int capacity)
    : capacity_(capacity), entries_(capacity)
{
    if (capacity < 4)
        fatal("ROB capacity too small: ", capacity);
}

} // namespace adaptsim::uarch
