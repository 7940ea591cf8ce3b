#include "uarch/issue_queue.hh"

#include "common/logging.hh"

namespace adaptsim::uarch
{

IssueQueue::IssueQueue(int capacity, int rob_capacity)
    : capacity_(capacity), robCapacity_(rob_capacity)
{
    if (capacity < 2)
        fatal("issue queue capacity too small: ", capacity);
    const auto slots = static_cast<std::size_t>(rob_capacity);
    ready_.assign((slots + wordBits - 1) / wordBits, 0);
    waiting_.assign(slots, 0);
    consumers_.assign(slots, -1);
    next_.assign(2 * slots, -1);
    linkedTo_.assign(2 * slots, -1);
}

} // namespace adaptsim::uarch
