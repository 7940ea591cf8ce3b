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

void
IssueQueue::link(std::int32_t rob_idx, int operand,
                 std::int32_t producer)
{
    const std::int32_t l = 2 * rob_idx + operand;
    next_[l] = consumers_[producer];
    linkedTo_[l] = producer;
    consumers_[producer] = l;
    ++waiting_[rob_idx];
}

void
IssueQueue::insert(std::int32_t rob_idx, std::int32_t prod0,
                   std::int32_t prod1)
{
    if (full())
        panic("IssueQueue::insert on full queue");
    ++count_;
    waiting_[rob_idx] = 0;
    if (prod0 >= 0)
        link(rob_idx, 0, prod0);
    if (prod1 >= 0)
        link(rob_idx, 1, prod1);
    if (waiting_[rob_idx] == 0)
        setReady(rob_idx);
}

void
IssueQueue::wakeup(std::int32_t producer)
{
    for (std::int32_t l = consumers_[producer]; l >= 0;) {
        const std::int32_t consumer = l / 2;
        linkedTo_[l] = -1;
        l = next_[l];
        if (--waiting_[consumer] == 0)
            setReady(consumer);
    }
    consumers_[producer] = -1;
}

void
IssueQueue::remove(std::int32_t rob_idx)
{
    // Unlink in reverse link order: when both operands wait on one
    // producer, operand 1's link sits in front of operand 0's.
    for (int operand = 1; operand >= 0; --operand) {
        const std::int32_t l = 2 * rob_idx + operand;
        const std::int32_t producer = linkedTo_[l];
        if (producer < 0)
            continue;
        if (consumers_[producer] != l)
            panic("IssueQueue::remove of a waiting op out of age "
                  "order");
        consumers_[producer] = next_[l];
        linkedTo_[l] = -1;
    }
    ready_[wordOf(rob_idx)] &= ~(std::uint64_t(1) << bitOf(rob_idx));
    --count_;
}

} // namespace adaptsim::uarch
