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

std::int32_t
Rob::push()
{
    if (full())
        panic("Rob::push on full ROB");
    ++count_;
    const std::int32_t idx = tailIndex();
    RobEntry &e = entries_[idx];
    // Preserve seq (incremented on recycle), reset the rest.
    const std::uint32_t seq = e.seq + 1;
    e = RobEntry{};
    e.seq = seq;
    e.state = OpState::Dispatched;
    return idx;
}

void
Rob::popHead()
{
    if (empty())
        panic("Rob::popHead on empty ROB");
    RobEntry &e = entries_[head_];
    e.state = OpState::Empty;
    ++e.seq;
    head_ = indexFromHead(1);
    --count_;
}

} // namespace adaptsim::uarch
