#include "uarch/load_store_queue.hh"

#include <bit>

namespace adaptsim::uarch
{

LoadStoreQueue::LoadStoreQueue(int capacity)
    : capacity_(capacity)
{
    if (capacity < 2)
        fatal("LSQ capacity too small: ", capacity);
    const auto ring = std::bit_ceil(static_cast<std::uint64_t>(capacity));
    mask_ = ring - 1;
    stores_.resize(ring);
}

} // namespace adaptsim::uarch
